package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"neurometer/internal/guard"
)

// TestGenerateDeterministic pins the seed contract: the same (scenario,
// seed) pair yields byte-identical schedule JSON, and different seeds
// differ.
func TestGenerateDeterministic(t *testing.T) {
	for _, name := range ScenarioNames() {
		a, err := Generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := a.MarshalIndent()
		jb, _ := b.MarshalIndent()
		if !bytes.Equal(ja, jb) {
			t.Errorf("scenario %s: seed 7 generated two different schedules", name)
		}
		c, err := Generate(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		jc, _ := c.MarshalIndent()
		if bytes.Equal(ja, jc) {
			t.Errorf("scenario %s: seeds 7 and 8 generated identical schedules", name)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("scenario %s: generated schedule fails validation: %v", name, err)
		}
	}
}

// TestScheduleRoundTrip checks the artifact cycle: write, read, identical.
func TestScheduleRoundTrip(t *testing.T) {
	s, err := Generate("mixed", 3)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/schedule.json"
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchedule(path)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := s.MarshalIndent()
	jb, _ := got.MarshalIndent()
	if !bytes.Equal(ja, jb) {
		t.Fatal("schedule did not survive a write/read round trip")
	}
}

// TestRegistryCompleteness pins the coverage claim: every production
// fault site in guard.Sites() is reachable from a generated schedule —
// each site is drawn by some scenario, and concretely appears in the
// union of schedules over a handful of seeds.
func TestRegistryCompleteness(t *testing.T) {
	declared := map[string]bool{}
	for _, sc := range scenarios {
		for _, site := range sc.Sites {
			declared[site] = true
		}
		for _, site := range sc.ExtraSites {
			declared[site] = true
		}
	}
	generated := map[string]bool{}
	for _, name := range ScenarioNames() {
		for seed := int64(1); seed <= 20; seed++ {
			s, err := Generate(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range s.Events {
				if e.Kind == KindFault {
					generated[e.Site] = true
				}
			}
		}
	}
	for _, site := range guard.Sites() {
		if !declared[site] {
			t.Errorf("fault site %q is not drawn by any scenario — the chaos engine cannot reach it", site)
		}
		if !generated[site] {
			t.Errorf("fault site %q never appeared in schedules for seeds 1..20 — coverage is theoretical only", site)
		}
	}
	for site := range declared {
		if !contains(guard.Sites(), site) {
			t.Errorf("scenario draws from %q, which is not a registered fault site", site)
		}
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// TestEpisodesPassAndReplayIdentically runs one episode per scenario
// (planted excepted — it is built to fail) and checks (a) every invariant
// holds, and (b) replaying the same schedule yields a byte-identical
// verdict — the determinism claim -replay rests on.
func TestEpisodesPassAndReplayIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("episodes take seconds each")
	}
	defer guard.DisarmAll()
	r := NewRunner()
	ctx := context.Background()
	for _, name := range []string{"cache", "mixed"} {
		sch, err := Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		v1, err := r.Run(ctx, sch)
		if err != nil {
			t.Fatalf("scenario %s: episode error: %v", name, err)
		}
		if !v1.Passed {
			t.Errorf("scenario %s seed 1: invariant violations:\n%v", name, v1.Violations)
			continue
		}
		v2, err := r.Run(ctx, sch)
		if err != nil {
			t.Fatalf("scenario %s: replay error: %v", name, err)
		}
		j1, _ := json.Marshal(v1)
		j2, _ := json.Marshal(v2)
		if !bytes.Equal(j1, j2) {
			t.Errorf("scenario %s: replay verdict differs:\n%s\n%s", name, j1, j2)
		}
	}
}

// TestPlantedViolationShrinksToMinimal is the shrinker acceptance test: a
// planted invariant violation (an undrained gauge) must be detected, and
// the greedy shrinker must reduce the schedule to at most 3 events — in
// practice exactly the violate op(s), since every other event is noise.
func TestPlantedViolationShrinksToMinimal(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking replays many episodes")
	}
	defer guard.DisarmAll()
	r := NewRunner()
	ctx := context.Background()
	sch, err := Generate("planted", 5)
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Run(ctx, sch)
	if err != nil {
		t.Fatal(err)
	}
	if v.Passed {
		t.Fatal("planted scenario passed — the violation was not detected")
	}
	min, err := Shrink(ctx, r, sch, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Events) > 3 {
		b, _ := min.MarshalIndent()
		t.Fatalf("shrunk schedule still has %d events (want <= 3):\n%s", len(min.Events), b)
	}
	for _, e := range min.Events {
		if e.Kind != KindOp || e.Op != OpViolate {
			t.Errorf("shrunk schedule kept a non-culprit event: %+v", e)
		}
	}
	// The minimized schedule must still reproduce the violation.
	vm, err := r.Run(ctx, min)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Passed {
		t.Fatal("shrunk schedule no longer fails — shrinker returned a non-reproduction")
	}
}
