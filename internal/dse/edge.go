package dse

import (
	"context"
	"fmt"

	"neurometer/internal/chip"
	"neurometer/internal/maclib"
	"neurometer/internal/perfsim"
	"neurometer/internal/periph"
)

// The paper's introduction motivates accelerators "ranging from cloud to
// edge devices"; its case study covers the datacenter end and validates the
// edge end against Eyeriss. This file adds the corresponding edge-side
// design-space sweep: mobile budgets (tens of mm^2, a couple of watts,
// LPDDR-class bandwidth, sub-megabyte memories) over the same (X, N)
// brawny-wimpy axis with single-digit core counts.

// EdgeConstraints returns a mobile/edge inference environment: 28nm low
// clock, 16 mm^2 / 2 W budgets, 2 MB of on-chip memory and 12.8 GB/s of
// LPDDR bandwidth.
func EdgeConstraints() Constraints {
	return Constraints{
		TechNM:        28,
		ClockHz:       400e6,
		AreaBudgetMM2: 16,
		PowerBudgetW:  2,
		TOPSCap:       4,
		MemBytes:      2 << 20,
		NoCBisectGBps: 16,
		OffChipGBps:   12.8,
		XChoices:      []int{8, 16, 32, 64},
		NChoices:      []int{1, 2},
		MaxTiles:      4,
	}
}

// edgeConfig adapts the datacenter template to the edge environment: DDR
// instead of HBM, no scalar core on single-tile designs (top-level control
// suffices, as in Eyeriss).
func edgeConfig(cs Constraints, p Point) chip.Config {
	cfg := chip.Config{
		Name: "edge" + p.String(), TechNM: cs.TechNM, ClockHz: cs.ClockHz,
		Tx: p.Tx, Ty: p.Ty,
		Core: chip.CoreConfig{
			NumTUs: p.N, TURows: p.X, TUCols: p.X, TUDataType: maclib.Int8,
			HasSU: p.Tiles() > 1,
			Mem: []chip.MemSegment{{
				Name: "spad", CapacityBytes: cs.MemBytes / int64(p.Tiles()),
			}},
		},
		NoCBisectionGBps: cs.NoCBisectGBps,
		OffChip:          []chip.OffChipPort{{Kind: periph.LPDDRPort, GBps: cs.OffChipGBps}},
		AreaBudgetMM2:    cs.AreaBudgetMM2,
		PowerBudgetW:     cs.PowerBudgetW,
	}
	return cfg
}

// EdgeRow is one edge design point with its batch-1 runtimes (the edge
// regime is always latency-critical single-image inference). MobileNet is
// the canonical edge model; ResNet-50 is the heavyweight reference.
type EdgeRow struct {
	Point       Point
	PeakTOPS    float64
	AreaMM2     float64
	TDPW        float64
	LatencyMS   float64 // ResNet-50
	FPS         float64
	PowerW      float64
	FPSPerWatt  float64
	Utilization float64
	// MobileNet single-image numbers.
	MobileLatencyMS  float64
	MobileFPS        float64
	MobileFPSPerWatt float64
}

// EdgeStudy sweeps the edge space and simulates single-image ResNet-50
// inference on every feasible point. Both workloads come prepared from the
// bundled memo, and every simulation runs through one Binding.
func EdgeStudy() ([]EdgeRow, error) {
	cs := EdgeConstraints()
	resnet, err := bundled.Get("resnet")
	if err != nil {
		return nil, err
	}
	mobilenet, err := bundled.Get("mobilenet")
	if err != nil {
		return nil, err
	}
	ctx, opt := context.Background(), perfsim.DefaultOptions()
	var b perfsim.Binding
	var res, mob perfsim.Result
	var rows []EdgeRow
	for _, x := range cs.XChoices {
		for _, n := range cs.NChoices {
			for _, g := range gridShapes(cs.MaxTiles) {
				p := Point{X: x, N: n, Tx: g[0], Ty: g[1]}
				peak := 2 * float64(x*x*n*p.Tiles()) * cs.ClockHz / 1e12
				if peak > cs.TOPSCap {
					continue
				}
				c, err := chip.BuildCached(edgeConfig(cs, p))
				if err != nil {
					continue // over budget
				}
				if err := b.SimulateInto(ctx, resnet, c, 1, opt, &res); err != nil {
					return nil, fmt.Errorf("dse: edge %s: %w", p, err)
				}
				if err := b.SimulateInto(ctx, mobilenet, c, 1, opt, &mob); err != nil {
					return nil, fmt.Errorf("dse: edge %s (mobilenet): %w", p, err)
				}
				e := c.Efficiency(res.AchievedTOPS*1e12, res.Activity)
				em := c.Efficiency(mob.AchievedTOPS*1e12, mob.Activity)
				rows = append(rows, EdgeRow{
					Point: p, PeakTOPS: c.PeakTOPS(), AreaMM2: c.AreaMM2(), TDPW: c.TDPW(),
					LatencyMS: res.LatencySec * 1e3, FPS: res.FPS,
					PowerW: e.PowerW, FPSPerWatt: res.FPS / e.PowerW,
					Utilization:     res.Utilization,
					MobileLatencyMS: mob.LatencySec * 1e3, MobileFPS: mob.FPS,
					MobileFPSPerWatt: mob.FPS / em.PowerW,
				})
			}
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dse: no feasible edge designs")
	}
	return rows, nil
}
