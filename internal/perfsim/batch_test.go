package perfsim

import (
	"context"
	"errors"
	"testing"

	"neurometer/internal/chip"
	"neurometer/internal/guard"
	"neurometer/internal/maclib"
	"neurometer/internal/workloads"
)

// simulateCandidates runs one batch of p on every chip in turn through one
// Binding into one Result, the loop neurometerd's simulate-batch route
// runs, and returns each candidate's headline and error. A failing
// candidate fails its own slot; the loop goes on with the next.
func simulateCandidates(ctx context.Context, p *Prepared, batch int, opt Options, chips []*chip.Chip) ([]headline, []error) {
	var b Binding
	var res Result
	got := make([]headline, len(chips))
	errs := make([]error, len(chips))
	for i, c := range chips {
		if errs[i] = b.SimulateInto(ctx, p, c, batch, opt, &res); errs[i] == nil {
			got[i] = stripLayers(res)
		}
	}
	return got, errs
}

// TestSimulateBatchBitIdentical pins the core determinism contract of
// evaluating a batch of candidates against one prepared workload: for every
// chip, batch size and option set, one Binding moved from candidate to
// candidate, and a Ladder reset per candidate, produce exactly the float64
// bits SimulateCtx produces.
func TestSimulateBatchBitIdentical(t *testing.T) {
	chips := batchChips(t, 9)
	ctx := context.Background()
	var l Ladder
	for _, g := range workloads.All() {
		p := mustPrepare(t, g)
		for _, batch := range []int{1, 16, 256} {
			for _, opt := range []Options{DefaultOptions(), NoOptimizations(), {SpaceToDepth: true}} {
				got, errs := simulateCandidates(ctx, p, batch, opt, chips)
				for i, c := range chips {
					if errs[i] != nil {
						t.Fatalf("%s batch %d chip %d: %v", g.Name, batch, i, errs[i])
					}
					want, err := SimulateCtx(ctx, c, g, batch, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got[i] != stripLayers(*want) {
						t.Errorf("%s batch %d chip %d: batch result diverges\n got %+v\nwant %+v",
							g.Name, batch, i, got[i], stripLayers(*want))
					}
					l.Reset(p, c, opt)
					lr, err := l.Simulate(ctx, batch)
					if err != nil {
						t.Fatalf("%s batch %d chip %d: ladder: %v", g.Name, batch, i, err)
					}
					if stripLayers(*lr) != stripLayers(*want) {
						t.Errorf("%s batch %d chip %d: ladder result diverges", g.Name, batch, i)
					}
				}
			}
		}
	}
}

// TestSimulateBatchMidBatchLayerFault targets a perfsim.layer fault at one
// candidate mid-batch: that candidate fails with the injected error, every
// other candidate's result, the ones simulated on the same Binding after
// the fault included, is bit-identical to a clean run. A Ladder does not
// memoize the failed simulation: asked again, it answers the clean result.
func TestSimulateBatchMidBatchLayerFault(t *testing.T) {
	g := workloads.ResNet50()
	p := mustPrepare(t, g)
	chips := batchChips(t, 5)
	ctx := context.Background()
	opt := DefaultOptions()

	want, errs := simulateCandidates(ctx, p, 16, opt, chips)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("clean run, candidate %d: %v", i, err)
		}
	}

	// Fire once, partway through candidate 2's layer walk.
	boom := errors.New("injected layer fault")
	disarm := guard.Arm("perfsim.layer", guard.Fault{
		Skip:  2*len(g.Layers) + 7,
		Count: 1,
		Err:   boom,
	})
	defer disarm()
	got, errs := simulateCandidates(ctx, p, 16, opt, chips)
	for i := range chips {
		if i == 2 {
			if !errors.Is(errs[2], boom) {
				t.Errorf("candidate 2: want injected fault, got %v", errs[2])
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("candidate %d: unexpected error %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("candidate %d: result disturbed by candidate 2's fault", i)
		}
	}

	disarm()
	var l Ladder
	l.Reset(p, chips[2], opt)
	defer guard.Arm("perfsim.layer", guard.Fault{Skip: 7, Count: 1, Err: boom})()
	if _, err := l.Simulate(ctx, 16); !errors.Is(err, boom) {
		t.Fatalf("ladder: want injected fault, got %v", err)
	}
	r, err := l.Simulate(ctx, 16)
	if err != nil {
		t.Fatalf("ladder after the fault: %v", err)
	}
	if stripLayers(*r) != want[2] {
		t.Errorf("ladder served its failed simulation of candidate 2")
	}
}

// TestSimulateBatchMidBatchPanic does the same with a panic at the layer
// site: RecoverTo converts it to that candidate's error, the rest of the
// batch completes with clean results.
func TestSimulateBatchMidBatchPanic(t *testing.T) {
	g := workloads.ResNet50()
	p := mustPrepare(t, g)
	chips := batchChips(t, 4)
	ctx := context.Background()
	want, _ := simulateCandidates(ctx, p, 8, DefaultOptions(), chips)
	defer guard.Arm("perfsim.layer", guard.Fault{
		Skip:  len(g.Layers) + 3, // mid candidate 1
		Count: 1,
		Panic: true,
	})()
	got, errs := simulateCandidates(ctx, p, 8, DefaultOptions(), chips)
	if errs[1] == nil {
		t.Errorf("candidate 1 should have failed from the injected panic")
	}
	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
		} else if got[i] != want[i] {
			t.Errorf("candidate %d: result disturbed by candidate 1's panic", i)
		}
	}
	if failed != 1 {
		t.Errorf("%d candidates failed, want 1", failed)
	}
}

// TestSimulateBatchPerCandidateValidation: a nil chip or a chip without
// tensor units fails its slot only, on the shared Binding and on a Ladder.
func TestSimulateBatchPerCandidateValidation(t *testing.T) {
	g := workloads.ResNet50()
	p := mustPrepare(t, g)
	rt, err := chip.Build(chip.Config{
		Name: "rt", TechNM: 28, ClockHz: 700e6, Tx: 1, Ty: 1,
		Core: chip.CoreConfig{NumRTs: 4, RTInputs: 1024, TUDataType: maclib.Int8,
			Mem: []chip.MemSegment{{Name: "spad", CapacityBytes: 8 << 20}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	chips := batchChips(t, 4)
	chips[1], chips[2] = nil, rt
	_, errs := simulateCandidates(context.Background(), p, 4, DefaultOptions(), chips)
	for _, i := range []int{1, 2} {
		if !errors.Is(errs[i], guard.ErrInvalidConfig) {
			t.Errorf("candidate %d: want invalid-input error, got %v", i, errs[i])
		}
	}
	if errs[0] != nil || errs[3] != nil {
		t.Errorf("healthy candidates failed: %v / %v", errs[0], errs[3])
	}
	var l Ladder
	for _, c := range []*chip.Chip{nil, rt} {
		l.Reset(p, c, DefaultOptions())
		if _, _, err := l.LatencyLimited(context.Background(), 10e-3); !errors.Is(err, guard.ErrInvalidConfig) {
			t.Errorf("ladder on an unsimulatable chip: want invalid-input error, got %v", err)
		}
	}
}

// TestSimulateBatchBatchLevelValidation: non-positive batch sizes fail
// every candidate, on the shared Binding and on a Ladder, and nil or
// invalid graphs fail to prepare.
func TestSimulateBatchBatchLevelValidation(t *testing.T) {
	g := workloads.ResNet50()
	p := mustPrepare(t, g)
	chips := batchChips(t, 2)
	for _, batch := range []int{0, -4} {
		_, errs := simulateCandidates(context.Background(), p, batch, DefaultOptions(), chips)
		for i, err := range errs {
			if !errors.Is(err, guard.ErrInvalidConfig) {
				t.Errorf("batch %d, candidate %d: want invalid-input error, got %v", batch, i, err)
			}
		}
		var l Ladder
		l.Reset(p, chips[0], DefaultOptions())
		if _, err := l.Simulate(context.Background(), batch); !errors.Is(err, guard.ErrInvalidConfig) {
			t.Errorf("ladder batch %d: want invalid-input error, got %v", batch, err)
		}
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
