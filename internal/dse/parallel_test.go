package dse

import (
	"context"
	"errors"
	"testing"

	"neurometer/internal/guard"
)

// The determinism contract: every observable sweep artifact — candidate
// lists, formatted tables, CSV — must be byte-identical
// at any worker count. These tests pin that contract; `go test -race`
// additionally proves the pool itself is race-free.

func TestEnumerateParallelMatchesSerial(t *testing.T) {
	cs := TableI()
	serial := EnumerateParallel(context.Background(), cs, 1)
	par := EnumerateParallel(context.Background(), cs, 8)
	if len(serial) != len(par) {
		t.Fatalf("serial found %d candidates, parallel found %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("candidate %d differs: serial %+v, parallel %+v", i, serial[i], par[i])
		}
	}
}

func TestRuntimeStudyParallelByteIdentical(t *testing.T) {
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	serial, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if FormatRuntimeRows(serial) != FormatRuntimeRows(par) {
		t.Fatalf("parallel table differs from serial:\n--- serial\n%s\n--- parallel\n%s",
			FormatRuntimeRows(serial), FormatRuntimeRows(par))
	}
	if RuntimeRowsCSV(serial) != RuntimeRowsCSV(par) {
		t.Fatalf("parallel CSV differs from serial:\n--- serial\n%s\n--- parallel\n%s",
			RuntimeRowsCSV(serial), RuntimeRowsCSV(par))
	}
}

func TestParallelCancelResumeMatchesSerial(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	// Reference: one uninterrupted serial run without a store.
	want, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted parallel run: the second candidate to start evaluation
	// cancels the sweep. Which candidates complete first is scheduling
	// dependent — that is the point — but whatever reached the store must
	// stay valid and the resumed output must still match the serial
	// reference.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := guard.Arm("dse.candidate", guard.Fault{Skip: 1, OnHit: cancel})
	_, err = RuntimeStudyHardened(ctx, cands, models, spec, opt, Hardening{Results: openCache(t, dir), Workers: 8})
	disarm()
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("interrupted run must classify as canceled, got %v", err)
	}

	// Resume in parallel on whatever the interrupted run left in the store.
	got, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt,
		Hardening{Results: openCache(t, dir), Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if FormatRuntimeRows(got) != FormatRuntimeRows(want) {
		t.Fatalf("resumed parallel output differs from serial reference:\n--- want\n%s\n--- got\n%s",
			FormatRuntimeRows(want), FormatRuntimeRows(got))
	}
	if RuntimeRowsCSV(got) != RuntimeRowsCSV(want) {
		t.Fatalf("resumed parallel CSV differs from serial reference")
	}
}

func TestRuntimeStudyParallelSurvivesInjectedPanic(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	// Exactly one simulation panics (whichever worker draws it); the pool
	// must absorb it as a classified candidate failure and deliver the
	// other rows. Run under -race this also proves the injection registry
	// and failure accounting are race-free inside the pool.
	disarm := guard.Arm("perfsim.simulate", guard.Fault{Panic: true, Count: 1})
	defer disarm()

	rows, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cands)-1 {
		t.Fatalf("got %d rows, want %d (one candidate sacrificed to the injected panic)",
			len(rows), len(cands)-1)
	}
}

// TestRuntimeStudyParallelLayerFault injects one per-layer simulator fault
// into a parallel study: exactly one candidate fails mid-simulation, and
// every other candidate's row is delivered untouched — a faulted candidate
// never poisons its neighbors' pooled memos or the shared prepared tables.
func TestRuntimeStudyParallelLayerFault(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	boom := errors.New("mid-study layer fault")
	disarm := guard.Arm("perfsim.layer", guard.Fault{Skip: 3, Count: 1, Err: boom})
	rows, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt,
		Hardening{Workers: 8})
	disarm()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cands)-1 {
		t.Fatalf("got %d rows, want %d (one candidate sacrificed to the injected fault)",
			len(rows), len(cands)-1)
	}

	// The surviving rows must be byte-identical to the corresponding rows of
	// a clean serial run: drop the one missing point and compare.
	clean, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	have := map[Point]bool{}
	for _, r := range rows {
		have[r.Point] = true
	}
	var kept []RuntimeRow
	for _, r := range clean {
		if have[r.Point] {
			kept = append(kept, r)
		}
	}
	if RuntimeRowsCSV(kept) != RuntimeRowsCSV(rows) {
		t.Fatalf("surviving rows differ from clean run:\n--- clean\n%s\n--- faulted\n%s",
			RuntimeRowsCSV(kept), RuntimeRowsCSV(rows))
	}
}

func TestResolveWorkers(t *testing.T) {
	for _, tc := range []struct{ in, wantMin int }{
		{0, 1}, {1, 1}, {3, 3},
	} {
		if got := resolveWorkers(tc.in); got != tc.wantMin {
			t.Errorf("resolveWorkers(%d) = %d, want %d", tc.in, got, tc.wantMin)
		}
	}
	if got := resolveWorkers(DefaultWorkers); got < 1 {
		t.Errorf("resolveWorkers(DefaultWorkers) = %d, want >= 1", got)
	}
}
