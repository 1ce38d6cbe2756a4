package guard

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestArmPlanMultiSiteExactHitCounts arms one plan across three sites and
// hammers every site from parallel goroutines. Hit accounting is
// serialized under the injection lock, so counts must be exact even under
// the race detector, and Skip/Count targeting must fire precisely the
// intended window of hits.
func TestArmPlanMultiSiteExactHitCounts(t *testing.T) {
	defer DisarmAll()
	errBoom := errors.New("boom")
	disarm := ArmPlan(Plan{
		Seed: 1,
		Faults: []PlanFault{
			{Site: "test.a", Fault: Fault{Err: errBoom}},                     // every hit
			{Site: "test.b", Fault: Fault{Skip: 10, Count: 5, Err: errBoom}}, // hits 11..15
			{Site: "test.c", Fault: Fault{Skip: 99, Err: errBoom}},           // hits 100..
		},
	})
	defer disarm()

	const workers, perWorker = 8, 25 // 200 hits per site
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				Inject(context.Background(), "test.a")
				Inject(context.Background(), "test.b")
				Inject(context.Background(), "test.c")
			}
		}()
	}
	wg.Wait()

	stats := Stats()
	want := map[string]SiteStats{
		"test.a": {Hits: 200, Fired: 200},
		"test.b": {Hits: 200, Fired: 5},
		"test.c": {Hits: 200, Fired: 101},
	}
	for site, w := range want {
		if got := stats[site]; got != w {
			t.Errorf("site %s: got %+v, want %+v", site, got, w)
		}
	}
}

// TestArmPlanStackedFaultsOneSite checks plan-order consultation when two
// faults share a site: the first fault owns its hit window, the second
// picks up where the first stops firing.
func TestArmPlanStackedFaultsOneSite(t *testing.T) {
	defer DisarmAll()
	errA, errB := errors.New("a"), errors.New("b")
	disarm := ArmPlan(Plan{
		Faults: []PlanFault{
			{Site: "test.s", Fault: Fault{Skip: 1, Count: 2, Err: errA}}, // hits 2,3
			{Site: "test.s", Fault: Fault{Skip: 4, Err: errB}},           // hits 5..
		},
	})
	defer disarm()

	var got []error
	for i := 0; i < 6; i++ {
		got = append(got, Inject(context.Background(), "test.s"))
	}
	want := []error{nil, errA, errA, nil, errB, errB}
	for i := range want {
		if !errors.Is(got[i], want[i]) && got[i] != want[i] {
			t.Errorf("hit %d: got %v, want %v", i+1, got[i], want[i])
		}
	}
}

// TestArmPlanProbabilisticDeterminism pins the replayability contract for
// probabilistic arming: the same (seed, hit sequence) fires the same hits,
// a different seed is allowed to differ, and the firing rate lands in a
// loose band around Prob.
func TestArmPlanProbabilisticDeterminism(t *testing.T) {
	defer DisarmAll()
	errBoom := errors.New("boom")
	run := func(seed int64) []bool {
		disarm := ArmPlan(Plan{
			Seed:   seed,
			Faults: []PlanFault{{Site: "test.p", Fault: Fault{Err: errBoom}, Prob: 0.3}},
		})
		defer disarm()
		fired := make([]bool, 400)
		for i := range fired {
			fired[i] = Inject(context.Background(), "test.p") != nil
		}
		return fired
	}

	a1, a2, b := run(42), run(42), run(43)
	if len(a1) != len(a2) {
		t.Fatal("length mismatch")
	}
	count := 0
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("hit %d differs between two runs of seed 42", i+1)
		}
		if a1[i] {
			count++
		}
	}
	if count < 60 || count > 180 { // 0.3*400 = 120 expected
		t.Errorf("seed 42 fired %d/400 hits, far from Prob=0.3", count)
	}
	same := true
	for i := range a1 {
		if a1[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical firing sequences — RNG is not seeded")
	}
}

// TestArmPlanConcurrentProbabilisticCountDeterminism checks that the
// *number* of probabilistic firings over N hits is a pure function of the
// seed even when the hits arrive from racing goroutines: every eligible
// hit consumes exactly one RNG draw under the lock, so total fired counts
// cannot depend on goroutine interleaving.
func TestArmPlanConcurrentProbabilisticCountDeterminism(t *testing.T) {
	defer DisarmAll()
	errBoom := errors.New("boom")
	run := func() int {
		disarm := ArmPlan(Plan{
			Seed:   7,
			Faults: []PlanFault{{Site: "test.pc", Fault: Fault{Err: errBoom}, Prob: 0.5}},
		})
		defer disarm()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					Inject(context.Background(), "test.pc")
				}
			}()
		}
		wg.Wait()
		return Stats()["test.pc"].Fired
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d fired %d hits, first run fired %d — probabilistic arming is not replayable", i+2, got, first)
		}
	}
}

// TestArmReplacesPlanSlice checks that a plain Arm on a site resets any
// plan faults stacked there (replace semantics), that the plan's other
// sites stay armed until the plan disarm runs, and that the plan disarm
// clears its sites wholesale (including faults armed there afterwards).
func TestArmReplacesPlanSlice(t *testing.T) {
	defer DisarmAll()
	errPlan, errArm := errors.New("plan"), errors.New("arm")
	disarmPlan := ArmPlan(Plan{
		Faults: []PlanFault{
			{Site: "test.r", Fault: Fault{Err: errPlan}},
			{Site: "test.other", Fault: Fault{Err: errPlan}},
		},
	})
	defer disarmPlan()

	disarmArm := Arm("test.r", Fault{Skip: 0, Err: errArm})
	defer disarmArm()
	if err := Inject(context.Background(), "test.r"); !errors.Is(err, errArm) {
		t.Fatalf("after Arm, site fired %v, want %v", err, errArm)
	}
	if err := Inject(context.Background(), "test.other"); !errors.Is(err, errPlan) {
		t.Fatalf("untouched plan site fired %v, want %v", err, errPlan)
	}

	disarmPlan()
	if err := Inject(context.Background(), "test.other"); err != nil {
		t.Fatalf("after plan disarm, site still fires: %v", err)
	}
	if err := Inject(context.Background(), "test.r"); err != nil {
		t.Fatalf("plan disarm covers whole sites; test.r still fires: %v", err)
	}
	if Armed() {
		t.Fatal("all sites disarmed, Armed() should be false")
	}
}
