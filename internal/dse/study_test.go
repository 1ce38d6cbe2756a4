package dse

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
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

// An interrupted Study.Run has persisted its completed rows in the result
// store; a fresh Study over the same spec and store resumes by rerunning
// and emits byte-identical CSV to an uninterrupted run — the property that
// lets a served study cut short by its deadline be posted again, to the
// same server or a restarted one, and simulate only what is missing.
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

// distinct returns n distinct six-digit choices.
func distinct(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 100000 + i
	}
	return out
}

// Duplicate or non-positive X and N choices are refused, not enumerated:
// a repeated choice would put every one of its points in the study twice.
// So is a design space of more than maxStudyPoints points, before any of
// it is listed: the huge row asks for about 2·10^11 points.
func TestStudyRejectsMalformedChoices(t *testing.T) {
	for _, tc := range []struct {
		name     string
		x, n     []int
		maxTiles int
	}{
		{"duplicate-x", []int{64, 64, 32}, nil, 0},
		{"duplicate-n", nil, []int{2, 4, 2}, 0},
		{"zero-x", []int{0, 8}, nil, 0},
		{"negative-n", nil, []int{-1, 2}, 0},
		{"over-cap", distinct(64), []int{1, 2, 3, 4, 5, 6, 7, 8}, 256},
		{"huge", distinct(75000), distinct(75000), 1 << 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tinySpec()
			if tc.x != nil {
				spec.Constraints.XChoices = tc.x
			}
			if tc.n != nil {
				spec.Constraints.NChoices = tc.n
			}
			if tc.maxTiles != 0 {
				spec.Constraints.MaxTiles = tc.maxTiles
			}
			before := obs.Default().Snapshot().Counters["dse.candidates_enumerated"]
			if _, err := NewStudy(context.Background(), spec); !errors.Is(err, guard.ErrInvalidConfig) {
				t.Fatalf("%d X, %d N choices, max tiles %d: got %v, want ErrInvalidConfig",
					len(spec.Constraints.XChoices), len(spec.Constraints.NChoices), spec.Constraints.MaxTiles, err)
			}
			if d := obs.Default().Snapshot().Counters["dse.candidates_enumerated"] - before; d != 0 {
				t.Fatalf("a refused study enumerated %d points", d)
			}
		})
	}
}

// The point cap admits a design space of exactly maxStudyPoints points and
// refuses one more.
func TestStudyPointCapBoundary(t *testing.T) {
	cs := TableI()
	cs.NChoices, cs.MaxTiles = []int{1}, 1 // one N choice, one grid shape
	cs.XChoices = distinct(maxStudyPoints)
	if err := checkPoints(cs); err != nil {
		t.Fatalf("%d points: %v", maxStudyPoints, err)
	}
	cs.XChoices = distinct(maxStudyPoints + 1)
	if err := checkPoints(cs); !errors.Is(err, guard.ErrInvalidConfig) {
		t.Fatalf("%d points: got %v, want ErrInvalidConfig", maxStudyPoints+1, err)
	}
}

// gridShapes keeps the layout rule for the grids the figures use and stays
// bounded for any tile limit: its old tx*tx bound wrapped to zero for
// limits near 2^61 and never ended.
func TestGridShapesBounded(t *testing.T) {
	want := [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 4}, {4, 4}, {4, 8}, {8, 8}, {8, 16}}
	if got := gridShapes(128); !reflect.DeepEqual(got, want) {
		t.Fatalf("gridShapes(128) = %v, want %v", got, want)
	}
	for _, max := range []int{0, -1, 1 << 40, 1 << 61, math.MaxInt} {
		shapes := gridShapes(max)
		if len(shapes) > 63 {
			t.Fatalf("gridShapes(%d) has %d shapes", max, len(shapes))
		}
		for _, g := range shapes {
			if g[0] < 1 || g[1] > max/g[0] || (g[1] != g[0] && g[1] != 2*g[0]) {
				t.Fatalf("gridShapes(%d) holds %v", max, g)
			}
		}
	}
	if n := len(gridShapes(1 << 40)); n != 41 {
		t.Fatalf("gridShapes(1<<40) has %d shapes, want 41", n)
	}
}

// A served study evaluates the candidate list dse -fig 10 does, in the
// same order: NewStudy reduces the enumeration and keeps its order.
func TestNewStudyKeepsPipelineOrder(t *testing.T) {
	ctx := context.Background()
	cs := TableI()
	s, err := NewStudy(ctx, StudySpec{Constraints: cs, Spec: BatchSpec{Fixed: 1}, Opt: perfsim.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	want := SecondRound(EnumerateCtx(ctx, cs), cs.TOPSCap)
	if len(s.cands) != len(want) {
		t.Fatalf("NewStudy kept %d candidates, the pipeline %d", len(s.cands), len(want))
	}
	for i := range want {
		if s.cands[i].Point != want[i].Point {
			t.Fatalf("candidate %d: NewStudy has %v, the pipeline %v", i, s.cands[i].Point, want[i].Point)
		}
	}
}

// A Study reads its workloads from the bundled memo: the Table II models
// when the spec names none, and one shared Prepared per model under its
// graph's name whatever alias the spec uses, with rows byte-identical to
// RuntimeStudyHardened over fresh graphs.
func TestStudyUsesBundledWorkloads(t *testing.T) {
	ctx := context.Background()
	spec := tinySpec()
	spec.Models = nil
	s, err := NewStudy(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := modelNames(DefaultModels()); !reflect.DeepEqual(s.sim.names, want) {
		t.Errorf("a spec with no models studies %v, want %v", s.sim.names, want)
	}

	spec.Models = []string{"mobilenet-v1", "alexnet"}
	if s, err = NewStudy(ctx, spec); err != nil {
		t.Fatal(err)
	}
	var graphs []*graph.Graph
	for i, name := range []string{"mobilenet", "alexnet"} {
		p, err := BundledWorkloads().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.sim.names[i] != name || s.sim.prepared[i] != p {
			t.Errorf("model %d: %q at %p, want %q at the memo's %p", i, s.sim.names[i], s.sim.prepared[i], name, p)
		}
		g, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	got, err := s.Run(ctx, Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RuntimeStudyHardened(ctx, s.cands, graphs, spec.Spec, spec.Opt, Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	if RuntimeRowsCSV(got) != RuntimeRowsCSV(want) {
		t.Errorf("Study.Run differs from RuntimeStudyHardened over fresh graphs:\n%s\nwant\n%s", RuntimeRowsCSV(got), RuntimeRowsCSV(want))
	}
}
