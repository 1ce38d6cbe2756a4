package perfsim

import (
	"math"
	"testing"

	"neurometer/internal/chip"
	"neurometer/internal/maclib"
	"neurometer/internal/periph"
	"neurometer/internal/workloads"
)

// FuzzPerfsimOptions drives Simulate across arbitrary batch sizes, option
// combinations, and chip shapes: no input may panic, every successful
// simulation must report finite cycles/TOPS/utilization, and the
// shape-class simulation must match the per-layer oracle bit for bit. The
// chip builds are cached per shape so the fuzzer spends its time in the
// simulator.
func FuzzPerfsimOptions(f *testing.F) {
	f.Add(1, true, true, true, 64, 2)
	f.Add(8, false, false, false, 8, 4)
	f.Add(256, true, false, true, 128, 1)
	f.Add(0, false, true, false, 64, 2)
	f.Add(-3, true, true, false, 32, 2)
	f.Add(1<<20, false, false, true, 16, 1)

	g, err := workloads.ByName("alexnet")
	if err != nil {
		f.Fatal(err)
	}
	p, err := Prepare(g)
	if err != nil {
		f.Fatal(err)
	}
	chips := map[[2]int]*chip.Chip{}
	build := func(x, n int) *chip.Chip {
		if c, ok := chips[[2]int{x, n}]; ok {
			return c
		}
		c, _ := chip.Build(chip.Config{
			Name: "fuzz", TechNM: 28, ClockHz: 700e6, Tx: 2, Ty: 2,
			Core: chip.CoreConfig{
				NumTUs: n, TURows: x, TUCols: x,
				TUDataType: maclib.Int8, HasSU: true,
				Mem: []chip.MemSegment{{Name: "spad", CapacityBytes: 4 << 20}},
			},
			NoCBisectionGBps: 256,
			OffChip:          []chip.OffChipPort{{Kind: periph.HBMPort, GBps: 700}},
		})
		chips[[2]int{x, n}] = c // nil for infeasible shapes: also a fuzz input
		return c
	}

	f.Fuzz(func(t *testing.T, batch int, s2d, s2b, dbuf bool, xRaw, nRaw int) {
		x := []int{8, 16, 32, 64, 128}[abs(xRaw)%5]
		n := []int{1, 2, 4}[abs(nRaw)%3]
		opt := Options{SpaceToDepth: s2d, SpaceToBatch: s2b, DoubleBuffer: dbuf}
		c := build(x, n)
		res, err := Simulate(c, g, batch, opt) // must never panic
		if c != nil && batch > 0 {
			checkMatchesOracle(t, c, p, batch, opt)
		}
		if err != nil {
			return
		}
		for name, v := range map[string]float64{
			"cycles": res.Cycles, "time": res.TimeSec, "fps": res.FPS,
			"tops": res.AchievedTOPS, "util": res.Utilization,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("simulation reports non-finite %s: %g (batch=%d x=%d n=%d opt=%+v)",
					name, v, batch, x, n, opt)
			}
		}
	})
}

func abs(v int) int {
	if v < 0 {
		if v == math.MinInt {
			return 0
		}
		return -v
	}
	return v
}
