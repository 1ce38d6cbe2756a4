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
// inputs once; SimulateBatch then evaluates many candidate chips against
// it, and every candidate's headline metrics are bit-identical to a
// per-candidate Simulate call. The returned BatchResult is pooled scratch —
// Release it when done, and copy out anything that must outlive the batch.
func ExamplePrepared_SimulateBatch() {
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
	candidates := []*chip.Chip{build(32), build(64), build(128)}
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
	br, err := p.SimulateBatch(context.Background(), 8, perfsim.DefaultOptions(), candidates)
	if err != nil {
		fmt.Println("simulate:", err)
		return
	}
	defer br.Release()
	fmt.Println("candidates evaluated:", len(br.Results))
	fmt.Println("failures:", br.Failed())
	for i, c := range candidates {
		single, _ := perfsim.Simulate(c, g, 8, perfsim.DefaultOptions())
		fmt.Printf("%s matches single-candidate run: %v\n",
			c.Cfg.Name, br.Results[i].FPS == single.FPS)
	}
	// Output:
	// candidates evaluated: 3
	// failures: 0
	// x32 matches single-candidate run: true
	// x64 matches single-candidate run: true
	// x128 matches single-candidate run: true
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
