package perfsim_test

import (
	"context"
	"fmt"

	"neurometer/internal/chip"
	"neurometer/internal/maclib"
	"neurometer/internal/perfsim"
	"neurometer/internal/periph"
	"neurometer/internal/workloads"
)

// Prepare validates a workload and computes its per-layer closed-form
// inputs once; a Ladder then answers "this workload on this chip at batch
// b" for one candidate chip at a time, memoizing each power-of-two batch
// it simulates. The latency-limited search walks the doubling ladder, and
// its headline metrics are bit-identical to a per-candidate Simulate call
// at the batch it finds; asking for a batch again answers from the memo.
func ExampleLadder() {
	build := func(x int) *chip.Chip {
		c, err := chip.BuildCached(chip.Config{
			Name: fmt.Sprintf("x%d", x), TechNM: 28, ClockHz: 700e6,
			Tx: 2, Ty: 2,
			Core: chip.CoreConfig{
				NumTUs: 2, TURows: x, TUCols: x, TUDataType: maclib.Int8,
				HasSU: true,
				Mem:   []chip.MemSegment{{Name: "spad", CapacityBytes: 8 << 20}},
			},
			NoCBisectionGBps: 256,
			OffChip:          []chip.OffChipPort{{Kind: periph.HBMPort, GBps: 700}},
		})
		if err != nil {
			panic(err)
		}
		return c
	}
	g, err := workloads.ByName("alexnet")
	if err != nil {
		fmt.Println("workload:", err)
		return
	}
	p, err := perfsim.Prepare(g)
	if err != nil {
		fmt.Println("prepare:", err)
		return
	}
	ctx := context.Background()
	var l perfsim.Ladder
	for _, c := range []*chip.Chip{build(32), build(64), build(128)} {
		l.Reset(p, c, perfsim.DefaultOptions())
		batch, res, err := l.LatencyLimited(ctx, 10e-3)
		if err != nil {
			fmt.Println("simulate:", err)
			return
		}
		single, _ := perfsim.Simulate(c, g, batch, perfsim.DefaultOptions())
		again, _ := l.Simulate(ctx, batch)
		fmt.Printf("%s matches single-candidate run: %v, memoized: %v\n",
			c.Cfg.Name, res.FPS == single.FPS, again == res)
	}
	// Output:
	// x32 matches single-candidate run: true, memoized: true
	// x64 matches single-candidate run: true, memoized: true
	// x128 matches single-candidate run: true, memoized: true
}

// Simulate maps a workload graph onto a built chip and returns per-batch
// runtime metrics. It is pure — the chip and graph are read-only — so
// sweeps call it concurrently against shared instances.
func ExampleSimulate() {
	c, err := chip.BuildCached(chip.Config{
		Name: "example", TechNM: 28, ClockHz: 700e6,
		Tx: 2, Ty: 2,
		Core: chip.CoreConfig{
			NumTUs: 2, TURows: 64, TUCols: 64, TUDataType: maclib.Int8,
			HasSU: true,
			Mem:   []chip.MemSegment{{Name: "spad", CapacityBytes: 8 << 20}},
		},
		NoCBisectionGBps: 256,
		OffChip:          []chip.OffChipPort{{Kind: periph.HBMPort, GBps: 700}},
	})
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	g, err := workloads.ByName("alexnet")
	if err != nil {
		fmt.Println("workload:", err)
		return
	}
	res, err := perfsim.Simulate(c, g, 8, perfsim.DefaultOptions())
	if err != nil {
		fmt.Println("simulate:", err)
		return
	}
	fmt.Println("batch:", res.Batch)
	fmt.Println("layers simulated:", len(res.Layers) == len(g.Layers))
	fmt.Println("throughput positive:", res.FPS > 0)
	fmt.Println("utilization in (0,1]:", res.Utilization > 0 && res.Utilization <= 1)
	// Output:
	// batch: 8
	// layers simulated: true
	// throughput positive: true
	// utilization in (0,1]: true
}
