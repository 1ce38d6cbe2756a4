package perfsim

import (
	"context"
	"fmt"
	"testing"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/maclib"
	"neurometer/internal/periph"
	"neurometer/internal/workloads"
)

// batchChips builds a spread of datacenter design points, cycling the
// Table-I axes so a run over them exercises different array sizes, TU
// counts, and tile grids.
func batchChips(t *testing.T, n int) []*chip.Chip {
	t.Helper()
	xs := []int{32, 64, 128, 256}
	ns := []int{1, 2, 4}
	grids := [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 4}}
	chips := make([]*chip.Chip, n)
	for i := range chips {
		g := grids[i%len(grids)]
		chips[i] = dcPoint(t, xs[i%len(xs)], ns[i%len(ns)], g[0], g[1])
	}
	return chips
}

// mustPrepare is Prepare for workloads known to be valid.
func mustPrepare(t *testing.T, g *graph.Graph) *Prepared {
	t.Helper()
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// headline is the comparable projection of a Result: everything but the
// Layers slice (only SimulateCtx records per-layer stats). Equality on it
// is exact float64 bit comparison, pinning the determinism contract.
type headline struct {
	Batch                                                       int
	Cycles, TimeSec, LatencySec, FPS, AchievedTOPS, Utilization float64
	Activity                                                    chip.Activity
}

func stripLayers(r Result) headline {
	return headline{
		Batch: r.Batch, Cycles: r.Cycles, TimeSec: r.TimeSec,
		LatencySec: r.LatencySec, FPS: r.FPS, AchievedTOPS: r.AchievedTOPS,
		Utilization: r.Utilization, Activity: r.Activity,
	}
}

// TestSimulateBatchZeroAllocs proves that simulating a batch of candidate
// chips against one prepared workload allocates nothing in the steady
// state: every candidate through one Binding into one Result, as
// neurometerd's simulate-batch route does, and every candidate's latency
// ladder, a memo hit and a spare batch through one Ladder reset per
// candidate, as a dse study does.
func TestSimulateBatchZeroAllocs(t *testing.T) {
	chips := batchChips(t, 8)
	p := mustPrepare(t, workloads.ResNet50())
	ctx := context.Background()
	opt := DefaultOptions()
	var b Binding
	var res Result
	var l Ladder
	run := func() {
		for _, c := range chips {
			if err := b.SimulateInto(ctx, p, c, 16, opt, &res); err != nil {
				t.Fatal(err)
			}
			l.Reset(p, c, opt)
			if _, _, err := l.LatencyLimited(ctx, 10e-3); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Simulate(ctx, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Simulate(ctx, 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // size the Bindings' tiling-terms slices
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("steady-state candidate evaluation allocates: %v allocs/run (want 0)", allocs)
	}
}

// TestLatencyLimitedSearchMatchesCtx pins Ladder.LatencyLimited against
// LatencyLimitedBatch, whose chosen batch runs through SimulateCtx, bit for
// bit, one Ladder reset per workload; and a bound even batch 1 misses
// still answers batch 1.
func TestLatencyLimitedSearchMatchesCtx(t *testing.T) {
	c := dcPoint(t, 64, 2, 2, 4)
	var l Ladder
	for _, g := range workloads.All() {
		for _, bound := range []float64{0.010, 1e-9} {
			l.Reset(mustPrepare(t, g), c, DefaultOptions())
			gotB, gotR, err := l.LatencyLimited(context.Background(), bound)
			if err != nil {
				t.Fatal(err)
			}
			wantB, wantR, err := LatencyLimitedBatch(c, g, bound, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if gotB != wantB {
				t.Errorf("%s under %g s: batch %d, want %d", g.Name, bound, gotB, wantB)
			}
			if stripLayers(*gotR) != stripLayers(*wantR) {
				t.Errorf("%s under %g s: latency-limited result diverges", g.Name, bound)
			}
			if bound < 1e-6 && gotB != 1 {
				t.Errorf("%s: a bound batch 1 misses answered batch %d, want 1", g.Name, gotB)
			}
		}
	}
}

// BenchmarkSimulateBatch measures candidate throughput on one prepared
// workload, 64 chips at batch 16 through one Binding into one Result (the
// simulate-batch route's loop), and reports it next to the per-candidate
// SimulateCtx path.
func BenchmarkSimulateBatch(b *testing.B) {
	chips := benchChips(b, 64)
	p, err := Prepare(workloads.ResNet50())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opt := DefaultOptions()
	var bind Binding
	var res Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range chips {
			if err := bind.SimulateInto(ctx, p, c, 16, opt, &res); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	perCand := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(chips))
	b.ReportMetric(1e9/perCand, "candidates/sec")
}

// BenchmarkSimulateSingle is the per-candidate baseline for
// BenchmarkSimulateBatch: the same 64 chips through SimulateCtx one at a
// time, full per-call prep and result allocation.
func BenchmarkSimulateSingle(b *testing.B) {
	chips := benchChips(b, 64)
	g := workloads.ResNet50()
	ctx := context.Background()
	opt := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range chips {
			if _, err := SimulateCtx(ctx, c, g, 16, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	perCand := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(chips))
	b.ReportMetric(1e9/perCand, "candidates/sec")
}

// benchChips is batchChips for benchmarks.
func benchChips(b *testing.B, n int) []*chip.Chip {
	b.Helper()
	xs := []int{32, 64, 128, 256}
	ns := []int{1, 2, 4}
	grids := [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 4}}
	chips := make([]*chip.Chip, n)
	for i := range chips {
		grid := grids[i%len(grids)]
		c, err := chip.Build(chip.Config{
			Name:   fmt.Sprintf("(%d,%d,%d,%d)", xs[i%len(xs)], ns[i%len(ns)], grid[0], grid[1]),
			TechNM: 28, ClockHz: 700e6, Tx: grid[0], Ty: grid[1],
			Core: chip.CoreConfig{
				NumTUs: ns[i%len(ns)], TURows: xs[i%len(xs)], TUCols: xs[i%len(xs)],
				TUDataType: maclib.Int8, HasSU: true,
				Mem: []chip.MemSegment{{Name: "spad", CapacityBytes: int64(32<<20) / int64(grid[0]*grid[1])}},
			},
			NoCBisectionGBps: 256,
			OffChip:          []chip.OffChipPort{{Kind: periph.HBMPort, GBps: 700}},
		})
		if err != nil {
			b.Fatal(err)
		}
		chips[i] = c
	}
	return chips
}
