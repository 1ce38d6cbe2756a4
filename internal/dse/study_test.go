package dse

import (
	"context"
	"errors"
	"testing"

	"neurometer/internal/guard"
	"neurometer/internal/perfsim"
	"neurometer/internal/workloads"
)

// tinySpec is a fast two-brawniness study on one workload, small enough to
// run uninterrupted in well under a second.
func tinySpec() StudySpec {
	cs := TableI()
	cs.XChoices = []int{8, 64}
	cs.NChoices = []int{2, 4}
	cs.MaxTiles = 32
	return StudySpec{
		Constraints: cs,
		Spec:        BatchSpec{Fixed: 8},
		Opt:         perfsim.DefaultOptions(),
		Models:      []string{"alexnet"},
	}
}

func TestStudyFingerprintStableAndDiscriminating(t *testing.T) {
	ctx := context.Background()
	a, err := NewStudy(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStudy(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical specs must produce identical fingerprints")
	}
	if a.NumCandidates() == 0 {
		t.Fatal("tiny spec produced no candidates")
	}

	other := tinySpec()
	other.Spec = BatchSpec{Fixed: 16}
	c, err := NewStudy(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different batch regimes must produce different fingerprints")
	}

	// Latency bounds that round to the same millisecond are still
	// different studies.
	fps := map[string]float64{}
	for _, bound := range []float64{9.9e-3, 10e-3, 10.1e-3} {
		spec := tinySpec()
		spec.Spec = BatchSpec{LatencyBound: bound}
		s, err := NewStudy(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := fps[s.Fingerprint()]; ok {
			t.Fatalf("latency bounds %g s and %g s share fingerprint %.60s", prev, bound, s.Fingerprint())
		}
		fps[s.Fingerprint()] = bound
	}
}

// An interrupted Study.Run has persisted its completed rows in the result
// store; a fresh Study over the same spec and store resumes by rerunning
// and emits byte-identical CSV to an uninterrupted run — the property the
// serving layer's drain-and-resubmit job lifecycle is built on.
func TestStudyRunResumeByteIdentical(t *testing.T) {
	defer guard.DisarmAll()
	ctx := context.Background()

	ref, err := NewStudy(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := ref.Run(ctx, Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	want := RuntimeRowsCSV(wantRows)

	// Interrupt a stored run after the second candidate completes: the
	// fault's OnHit cancels the study context at a deterministic point.
	dir := t.TempDir()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	disarm := guard.Arm("dse.candidate", guard.Fault{Skip: 2, Count: 1, OnHit: func() { cancel() }})
	s1, err := NewStudy(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(cctx, Hardening{Results: openCache(t, dir)}); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("interrupted run: got %v, want ErrCanceled", err)
	}
	disarm()

	// A fresh Study (as a restarted server would build) reuses the stored
	// rows and completes the remainder.
	s2, err := NewStudy(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := storeCounter("dse.candidates_from_store")
	gotRows, err := s2.Run(ctx, Hardening{Results: openCache(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if d := storeCounter("dse.candidates_from_store") - hitsBefore; d != 2 {
		t.Fatalf("resumed run served %d candidates from the store, want 2", d)
	}
	if got := RuntimeRowsCSV(gotRows); got != want {
		t.Fatalf("resumed study output differs from uninterrupted run:\n got: %s\nwant: %s", got, want)
	}
}

func TestStudyRejectsUnknownWorkload(t *testing.T) {
	spec := tinySpec()
	spec.Models = []string{"gpt7"}
	if _, err := NewStudy(context.Background(), spec); !errors.Is(err, guard.ErrInvalidConfig) {
		t.Fatalf("unknown workload: got %v, want ErrInvalidConfig", err)
	}
}

// Duplicate or non-positive X and N choices are refused, not enumerated:
// a repeated choice would put every one of its points in the study twice.
func TestStudyRejectsMalformedChoices(t *testing.T) {
	for _, tc := range []struct {
		name string
		x, n []int
	}{
		{"duplicate-x", []int{64, 64, 32}, nil},
		{"duplicate-n", nil, []int{2, 4, 2}},
		{"zero-x", []int{0, 8}, nil},
		{"negative-n", nil, []int{-1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tinySpec()
			if tc.x != nil {
				spec.Constraints.XChoices = tc.x
			}
			if tc.n != nil {
				spec.Constraints.NChoices = tc.n
			}
			if _, err := NewStudy(context.Background(), spec); !errors.Is(err, guard.ErrInvalidConfig) {
				t.Fatalf("x=%v n=%v: got %v, want ErrInvalidConfig", tc.x, tc.n, err)
			}
		})
	}
}

// A served study evaluates the candidate list dse -fig 10 does, in the
// same order: NewStudy reduces the enumeration and keeps its order.
func TestNewStudyKeepsPipelineOrder(t *testing.T) {
	ctx := context.Background()
	cs := TableI()
	spec := StudySpec{Constraints: cs, Spec: BatchSpec{Fixed: 1}, Opt: perfsim.DefaultOptions()}
	s, err := NewStudy(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The fingerprint lists every candidate point in order.
	want := SecondRound(Frontier(EnumerateCtx(ctx, cs), cs.TOPSCap), cs.TOPSCap)
	if fp := StudyFingerprint(want, workloads.All(), spec.Spec, spec.Opt); s.Fingerprint() != fp {
		t.Fatalf("NewStudy fingerprint\n%s\nwant the pipeline's\n%s", s.Fingerprint(), fp)
	}
}
