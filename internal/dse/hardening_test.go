package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/perfsim"
	"neurometer/internal/workloads"
)

// studyFixture returns a small candidate set and workload for fast
// hardening tests: three feasible sweep points and AlexNet only.
func studyFixture(t *testing.T) ([]Candidate, BatchSpec, perfsim.Options) {
	t.Helper()
	cands := []Candidate{
		findCand(t, Point{X: 64, N: 2, Tx: 2, Ty: 4}),
		findCand(t, Point{X: 64, N: 4, Tx: 1, Ty: 2}),
		findCand(t, Point{X: 8, N: 4, Tx: 4, Ty: 8}),
	}
	return cands, BatchSpec{Fixed: 8}, perfsim.DefaultOptions()
}

func alexnet(t *testing.T) []*graph.Graph {
	t.Helper()
	g, err := workloads.ByName("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	return []*graph.Graph{g}
}

func TestRuntimeStudySkipsPanickingCandidate(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	// The second candidate's simulation panics; the sweep must survive
	// and deliver the other two rows.
	disarm := guard.Arm("perfsim.simulate", guard.Fault{Skip: 1, Count: 1, Panic: true})
	defer disarm()

	rows, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (panicking candidate skipped)", len(rows))
	}
	for _, r := range rows {
		if r.Point == cands[1].Point {
			t.Fatalf("panicking candidate %s must not produce a row", r.Point)
		}
	}
}

func TestRuntimeStudyRejectsNaNRows(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	// Corrupt candidate 0's achieved TOPS into NaN: the row must be
	// rejected with ErrNonFinite, never reaching the output.
	disarm := guard.Arm("perfsim.achieved_tops", guard.Fault{Count: 1, NaN: true})
	defer disarm()

	rows, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.AchievedTOPS) || math.IsNaN(r.TOPSPerWatt) {
			t.Fatalf("NaN leaked into row %s", r.Point)
		}
	}
}

func TestRuntimeStudyCancellationReturnsPartial(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	// Cancel the sweep as candidate 1 starts: candidate 0's row survives
	// and the error is the classified cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := guard.Arm("dse.candidate", guard.Fault{Skip: 1, OnHit: cancel})
	defer disarm()

	rows, err := RuntimeStudyHardened(ctx, cands, models, spec, opt, Hardening{})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("error %v must wrap ErrCanceled", err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1 completed before cancellation", len(rows))
	}
}

// Rerunning an interrupted study on its result store resumes it: a serial
// run interrupted while candidate 1 evaluates has stored candidate 0's
// row, and rerunning on the same store serves that row and evaluates only
// candidates 1 and 2, with output byte-identical to an uninterrupted run.
func TestRerunOnStoreIsByteIdentical(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	// Reference: one uninterrupted run.
	want, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel while candidate 1 evaluates.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := guard.Arm("dse.candidate", guard.Fault{Skip: 1, OnHit: cancel})
	partial, err := RuntimeStudyHardened(ctx, cands, models, spec, opt, Hardening{Results: openCache(t, dir)})
	disarm()
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("interrupted run: %v", err)
	}
	if len(partial) != 1 {
		t.Fatalf("interrupted run produced %d rows, want 1", len(partial))
	}
	if n := len(storeEntryFiles(t, dir)); n != 1 {
		t.Fatalf("interrupted run persisted %d rows, want 1", n)
	}

	// Resume by rerunning on the store: candidate 0 is a hit, 1 and 2 run.
	hitsBefore := storeCounter("dse.candidates_from_store")
	got, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{Results: openCache(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if d := storeCounter("dse.candidates_from_store") - hitsBefore; d != 1 {
		t.Fatalf("rerun served %d candidates from the store, want 1", d)
	}
	if FormatRuntimeRows(got) != FormatRuntimeRows(want) {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- want\n%s\n--- got\n%s",
			FormatRuntimeRows(want), FormatRuntimeRows(got))
	}
}

// Fig10Hardened keeps its last argument only for signature compatibility:
// a non-empty checkpoint path must fail before any simulation, never run a
// study without the checkpoint its caller asked for.
func TestFig10HardenedRejectsCheckpointPath(t *testing.T) {
	cands, _, _ := studyFixture(t)
	before := obs.Default().Snapshot().Counters["perfsim.simulations"]
	_, err := Fig10Hardened(context.Background(), cands, alexnet(t), Hardening{}, "fig10")
	if !errors.Is(err, guard.ErrInvalidConfig) {
		t.Fatalf("non-empty checkpoint path: got %v, want ErrInvalidConfig", err)
	}
	if d := obs.Default().Snapshot().Counters["perfsim.simulations"] - before; d != 0 {
		t.Fatalf("rejected call ran %d simulations, want 0", d)
	}
}

// A model that fails validation fails every candidate with its own
// validation error, in both batch regimes, even behind a valid model.
func TestRuntimeStudyInvalidModelFailsEveryCandidate(t *testing.T) {
	cands, _, opt := studyFixture(t)
	broken := &graph.Graph{Name: "broken", Layers: []graph.Layer{
		{Name: "conv1", Kind: graph.Conv2D, InH: 0, InW: 224, InC: 3, OutC: 64, KH: 3, KW: 3},
	}}
	models := append(alexnet(t), broken)
	for _, spec := range []BatchSpec{{Fixed: 1}, {LatencyBound: 10e-3}} {
		rows, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{})
		if len(rows) != 0 || !errors.Is(err, guard.ErrInvalidConfig) {
			t.Fatalf("%s: got %d rows, err %v; want none and ErrInvalidConfig", spec, len(rows), err)
		}
		var per []string
		for _, c := range cands {
			per = append(per, fmt.Sprintf(`dse: candidate %s on model "broken" (%s): invalid config: `+
				`perfsim: graph "broken" layer 0 (conv1): non-positive input dims`, c.Point, spec))
		}
		want := fmt.Sprintf("dse: runtime study: all %d candidates failed: %s", len(cands), strings.Join(per, "\n"))
		if err.Error() != want {
			t.Fatalf("%s: error\n%s\nwant\n%s", spec, err, want)
		}
	}
}

func TestWinnerSkipsNaN(t *testing.T) {
	rows := []RuntimeRow{
		{Point: Point{X: 8}, AchievedTOPS: math.NaN()},
		{Point: Point{X: 16}, AchievedTOPS: 10},
		{Point: Point{X: 32}, AchievedTOPS: 20},
	}
	w, err := Winner(rows, ByAchievedTOPS)
	if err != nil {
		t.Fatal(err)
	}
	if w.Point.X != 32 {
		t.Fatalf("winner %v, want X=32", w.Point)
	}

	allNaN := []RuntimeRow{{AchievedTOPS: math.NaN()}, {AchievedTOPS: math.NaN()}}
	if _, err := Winner(allNaN, ByAchievedTOPS); !errors.Is(err, guard.ErrNonFinite) {
		t.Fatalf("all-NaN rows must fail with ErrNonFinite, got %v", err)
	}
	if _, err := Winner(nil, ByAchievedTOPS); !errors.Is(err, guard.ErrInvalidConfig) {
		t.Fatalf("empty rows must fail with ErrInvalidConfig, got %v", err)
	}
}

func TestFrontierAndSortNaNSafe(t *testing.T) {
	base := findCand(t, Point{X: 64, N: 2, Tx: 2, Ty: 4})

	// NaN PeakTOPS must sort last, not scramble the order.
	nanPeak := base
	nanPeak.Point = Point{X: 64, N: 2, Tx: 8, Ty: 8}
	nanPeak.PeakTOPS = math.NaN()
	sorted := Frontier([]Candidate{nanPeak, base}, TableI().TOPSCap)
	if len(sorted) > 1 && math.IsNaN(sorted[0].PeakTOPS) {
		t.Fatalf("NaN PeakTOPS sorted first")
	}
}

func TestEnumerateSurvivesInjectedBuildPanic(t *testing.T) {
	defer guard.DisarmAll()
	disarm := guard.Arm("chip.build", guard.Fault{Skip: 2, Count: 1, Panic: true})
	defer disarm()
	out := EnumerateCtx(context.Background(), TableI())
	if len(out) < len(sweep)-1 {
		t.Fatalf("enumeration lost more than the panicking candidate: %d vs %d", len(out), len(sweep))
	}
}

// Only successful simulations are shared between a candidate's rows. A
// latency bound no batch meets stops the ladder at batch 1, so the second
// regime reads exactly the simulation the first one ran: it shares it when
// it succeeded, and runs it afresh when it failed.
func TestRuntimeStudySharesOnlySuccessfulSimulations(t *testing.T) {
	defer guard.DisarmAll()
	cands, _, opt := studyFixture(t)
	models := alexnet(t)
	specs := []BatchSpec{{Fixed: 1}, {LatencyBound: 1e-9}}
	sims := func() int64 { return obs.Default().Snapshot().Counters["perfsim.simulations"] }

	before := sims()
	want, failed, err := runtimeStudy(context.Background(), cands, models, specs, opt, Hardening{})
	if err != nil || failed[0] != nil || failed[1] != nil {
		t.Fatal(err, failed)
	}
	// Per candidate: batch 1 once for both regimes, then the ladder's
	// over-bound batch-2 probe.
	if d := sims() - before; d != int64(2*len(cands)) {
		t.Fatalf("perfsim.simulations = %d, want %d", d, 2*len(cands))
	}

	// The first candidate's batch-1 simulation fails in the first regime.
	disarm := guard.Arm("perfsim.simulate", guard.Fault{Count: 1, Err: errors.New("injected")})
	got, failed, err := runtimeStudy(context.Background(), cands, models, specs, opt, Hardening{})
	disarm()
	if err != nil || failed[0] != nil || failed[1] != nil {
		t.Fatal(err, failed)
	}
	if RuntimeRowsCSV(got[0]) != RuntimeRowsCSV(want[0][1:]) {
		t.Errorf("first regime: want every row but the failed candidate's")
	}
	if RuntimeRowsCSV(got[1]) != RuntimeRowsCSV(want[1]) {
		t.Errorf("second regime differs after the first regime's simulation failed")
	}
}

// Fig10Hardened's error contract: a regime whose candidates all fail fails
// the run under its regime name, and an interrupted run returns no map and
// the classified cause.
func TestFig10HardenedErrors(t *testing.T) {
	defer guard.DisarmAll()
	cands, _, _ := studyFixture(t)
	broken := &graph.Graph{Name: "broken", Layers: []graph.Layer{
		{Name: "conv1", Kind: graph.Conv2D, InH: 0, InW: 224, InC: 3, OutC: 64, KH: 3, KW: 3},
	}}
	out, err := Fig10Hardened(context.Background(), cands, []*graph.Graph{broken}, Hardening{}, "")
	if out != nil || !errors.Is(err, guard.ErrInvalidConfig) ||
		!strings.HasPrefix(err.Error(), "fig10 a-small: dse: runtime study: all 3 candidates failed: ") {
		t.Errorf("all candidates failing: got map %v, err %v", out, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := guard.Arm("dse.candidate", guard.Fault{Skip: 4, OnHit: cancel})
	out, err = Fig10Hardened(ctx, cands, alexnet(t), Hardening{}, "")
	disarm()
	if out != nil || !errors.Is(err, guard.ErrCanceled) || err.Error() != "fig10: canceled: context canceled" {
		t.Errorf("canceled: got map %v, err %v", out, err)
	}
}
