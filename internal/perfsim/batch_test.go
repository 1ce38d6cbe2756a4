package perfsim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/maclib"
	"neurometer/internal/periph"
	"neurometer/internal/workloads"
)

// batchChips builds a spread of datacenter design points, cycling the
// Table-I axes so the batch exercises different array sizes, TU counts,
// and tile grids.
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
// Layers slice (batch results never record per-layer stats). Equality on it
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

// TestSimulateBatchBitIdentical pins the core determinism contract: for
// every chip, batch size, and option set, SimulateBatch produces exactly
// the float64 bits SimulateCtx produces.
func TestSimulateBatchBitIdentical(t *testing.T) {
	chips := batchChips(t, 9)
	for _, g := range workloads.All() {
		p := mustPrepare(t, g)
		for _, batch := range []int{1, 16, 256} {
			for _, opt := range []Options{DefaultOptions(), NoOptimizations(), {SpaceToDepth: true}} {
				br, err := p.SimulateBatch(context.Background(), batch, opt, chips)
				if err != nil {
					t.Fatalf("%s batch %d: %v", g.Name, batch, err)
				}
				for i, c := range chips {
					if br.Errs[i] != nil {
						t.Fatalf("%s batch %d chip %d: %v", g.Name, batch, i, br.Errs[i])
					}
					want, err := SimulateCtx(context.Background(), c, g, batch, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got := stripLayers(br.Results[i]); got != stripLayers(*want) {
						t.Errorf("%s batch %d chip %d: batch result diverges\n got %+v\nwant %+v",
							g.Name, batch, i, got, stripLayers(*want))
					}
				}
				br.Release()
			}
		}
	}
}

// TestSimulateBatchZeroAllocs proves the steady-state batch path is
// allocation-free: prepared workload, pooled scratch, no per-candidate or
// per-layer garbage. testing.Benchmark absorbs the occasional pool clear a
// GC cycle causes (AllocsPerOp rounds the average down).
func TestSimulateBatchZeroAllocs(t *testing.T) {
	chips := batchChips(t, 8)
	g := workloads.ResNet50()
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := DefaultOptions()
	// Warm the pool so the measured loop starts in steady state.
	br, err := p.SimulateBatch(ctx, 16, opt, chips)
	if err != nil {
		t.Fatal(err)
	}
	br.Release()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			br, err := p.SimulateBatch(ctx, 16, opt, chips)
			if err != nil {
				b.Fatal(err)
			}
			br.Release()
		}
	})
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Errorf("steady-state batch evaluation allocates: %d allocs/op (want 0)", allocs)
	}
}

// TestSimulateBatchPoolNoAliasing pins the pool-reuse invariant: a
// BatchResult that has not been released must never share scratch with a
// later batch. Two back-to-back batches are compared against fresh
// per-candidate evaluations after both have run.
func TestSimulateBatchPoolNoAliasing(t *testing.T) {
	g := workloads.ResNet50()
	p := mustPrepare(t, g)
	ctx := context.Background()
	opt := DefaultOptions()
	chipsA := batchChips(t, 6)
	chipsB := batchChips(t, 6)[3:] // different shape and length

	brA, err := p.SimulateBatch(ctx, 16, opt, chipsA)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([]Result, len(brA.Results))
	copy(snapshot, brA.Results)

	brB, err := p.SimulateBatch(ctx, 64, opt, chipsB)
	if err != nil {
		t.Fatal(err)
	}
	if &brA.Results[0] == &brB.Results[0] {
		t.Fatalf("second batch reused scratch of an unreleased BatchResult")
	}
	for i := range brA.Results {
		if stripLayers(brA.Results[i]) != stripLayers(snapshot[i]) {
			t.Errorf("chip %d: first batch mutated by second batch", i)
		}
	}
	// Release both, run a third batch: it may reuse either scratch but must
	// fully overwrite it.
	brA.Release()
	brB.Release()
	brC, err := p.SimulateBatch(ctx, 1, opt, chipsA)
	if err != nil {
		t.Fatal(err)
	}
	defer brC.Release()
	for i, c := range chipsA {
		want, err := SimulateCtx(ctx, c, g, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		if stripLayers(brC.Results[i]) != stripLayers(*want) {
			t.Errorf("chip %d: recycled scratch not fully overwritten", i)
		}
	}
}

// TestSimulateBatchMidBatchLayerFault targets a perfsim.layer fault at one
// candidate mid-batch: that candidate fails with the injected error, every
// other candidate's result is untouched and bit-identical to a clean run.
func TestSimulateBatchMidBatchLayerFault(t *testing.T) {
	g := workloads.ResNet50()
	p := mustPrepare(t, g)
	chips := batchChips(t, 5)
	ctx := context.Background()
	opt := DefaultOptions()

	clean, err := p.SimulateBatch(ctx, 16, opt, chips)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Result, len(clean.Results))
	copy(want, clean.Results)
	clean.Release()

	// Fire once, partway through candidate 2's layer walk.
	boom := errors.New("injected layer fault")
	defer guard.Arm("perfsim.layer", guard.Fault{
		Skip:  2*len(g.Layers) + 7,
		Count: 1,
		Err:   boom,
	})()
	br, err := p.SimulateBatch(ctx, 16, opt, chips)
	if err != nil {
		t.Fatalf("batch-level error from a single-candidate fault: %v", err)
	}
	defer br.Release()
	for i := range chips {
		if i == 2 {
			if !errors.Is(br.Errs[2], boom) {
				t.Errorf("candidate 2: want injected fault, got %v", br.Errs[2])
			}
			continue
		}
		if br.Errs[i] != nil {
			t.Errorf("candidate %d: unexpected error %v", i, br.Errs[i])
		}
		if stripLayers(br.Results[i]) != stripLayers(want[i]) {
			t.Errorf("candidate %d: result disturbed by candidate 2's fault", i)
		}
	}
}

// TestSimulateBatchMidBatchPanic does the same with a panic at the layer
// site: RecoverTo converts it to that candidate's error, the rest of the
// batch completes.
func TestSimulateBatchMidBatchPanic(t *testing.T) {
	g := workloads.ResNet50()
	chips := batchChips(t, 4)
	defer guard.Arm("perfsim.layer", guard.Fault{
		Skip:  len(g.Layers) + 3, // mid candidate 1
		Count: 1,
		Panic: true,
	})()
	br, err := mustPrepare(t, g).SimulateBatch(context.Background(), 8, DefaultOptions(), chips)
	if err != nil {
		t.Fatalf("batch-level error from a single-candidate panic: %v", err)
	}
	defer br.Release()
	if br.Errs[1] == nil {
		t.Errorf("candidate 1 should have failed from the injected panic")
	}
	if got := br.Failed(); got != 1 {
		t.Errorf("Failed() = %d, want 1", got)
	}
}

// TestSimulateBatchPerCandidateValidation: a nil chip or TU-less chip fails
// its slot only.
func TestSimulateBatchPerCandidateValidation(t *testing.T) {
	g := workloads.ResNet50()
	chips := batchChips(t, 3)
	chips[1] = nil
	br, err := mustPrepare(t, g).SimulateBatch(context.Background(), 4, DefaultOptions(), chips)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Release()
	if !errors.Is(br.Errs[1], guard.ErrInvalidConfig) {
		t.Errorf("nil chip: want invalid-input error, got %v", br.Errs[1])
	}
	if br.Errs[0] != nil || br.Errs[2] != nil {
		t.Errorf("healthy candidates failed: %v / %v", br.Errs[0], br.Errs[2])
	}
}

// TestSimulateBatchBatchLevelValidation: bad batch sizes and empty chip
// lists fail the whole call, and nil/invalid graphs fail to prepare.
func TestSimulateBatchBatchLevelValidation(t *testing.T) {
	g := workloads.ResNet50()
	p := mustPrepare(t, g)
	chips := batchChips(t, 2)
	if _, err := p.SimulateBatch(context.Background(), 0, DefaultOptions(), chips); err == nil {
		t.Errorf("batch 0 must fail")
	}
	if _, err := p.SimulateBatch(context.Background(), 4, DefaultOptions(), nil); err == nil {
		t.Errorf("empty chip list must fail")
	}
	if _, err := Prepare(nil); err == nil {
		t.Errorf("nil graph must fail")
	}
	bad := *g
	bad.Layers = nil
	if _, err := Prepare(&bad); err == nil {
		t.Errorf("invalid graph must fail")
	}
}

// TestSimulateBatchCtxCancel: a canceled ctx aborts the whole batch with
// the classified error.
func TestSimulateBatchCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := mustPrepare(t, workloads.ResNet50()).SimulateBatch(ctx, 4, DefaultOptions(), batchChips(t, 2))
	if !errors.Is(err, guard.ErrCanceled) {
		t.Errorf("want guard.ErrCanceled, got %v", err)
	}
}

// TestLatencyLimitedSearchMatchesCtx pins the latency search probed through
// one Binding into caller-owned Results against LatencyLimitedBatch's
// per-call path, bit for bit.
func TestLatencyLimitedSearchMatchesCtx(t *testing.T) {
	c := dcPoint(t, 64, 2, 2, 4)
	for _, g := range workloads.All() {
		p := mustPrepare(t, g)
		var b Binding
		gotB, gotR, err := LatencyLimitedSearch(0.010, func(batch int) (*Result, error) {
			r := new(Result)
			return r, b.SimulateInto(context.Background(), p, c, batch, DefaultOptions(), r)
		})
		if err != nil {
			t.Fatal(err)
		}
		wantB, wantR, err := LatencyLimitedBatch(c, g, 0.010, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if gotB != wantB {
			t.Errorf("%s: batch %d, want %d", g.Name, gotB, wantB)
		}
		if stripLayers(*gotR) != stripLayers(*wantR) {
			t.Errorf("%s: latency-limited result diverges", g.Name)
		}
	}
}

// BenchmarkSimulateBatch measures batch-64 candidate throughput and
// reports it next to the per-candidate SimulateCtx path; the
// "speedup-vs-single" metric is the acceptance headline.
func BenchmarkSimulateBatch(b *testing.B) {
	chips := benchChips(b, 64)
	g := workloads.ResNet50()
	p, err := Prepare(g)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opt := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, err := p.SimulateBatch(ctx, 16, opt, chips)
		if err != nil {
			b.Fatal(err)
		}
		if br.Failed() > 0 {
			b.Fatal("batch candidate failed")
		}
		br.Release()
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
