package guard

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func TestInjectUnarmedIsNoop(t *testing.T) {
	DisarmAll()
	if err := Inject(context.Background(), "nowhere"); err != nil {
		t.Errorf("unarmed site must be a no-op: %v", err)
	}
	if v := CorruptFloat("nowhere", 42); v != 42 {
		t.Errorf("unarmed CorruptFloat must pass through: %v", v)
	}
}

func TestInjectSkipAndCount(t *testing.T) {
	t.Cleanup(DisarmAll)
	sentinel := errors.New("boom")
	Arm("site.a", Fault{Skip: 2, Count: 1, Err: sentinel})
	var got []error
	for i := 0; i < 5; i++ {
		got = append(got, Inject(nil, "site.a"))
	}
	want := []error{nil, nil, sentinel, nil, nil}
	for i := range want {
		if !errors.Is(got[i], want[i]) && got[i] != want[i] {
			t.Errorf("hit %d: got %v, want %v", i+1, got[i], want[i])
		}
	}
}

func TestInjectPanicAndDisarm(t *testing.T) {
	t.Cleanup(DisarmAll)
	disarm := Arm("site.p", Fault{Panic: true})
	var err error
	func() {
		defer RecoverTo(&err)
		_ = Inject(context.Background(), "site.p")
	}()
	if !errors.Is(err, ErrCandidatePanic) {
		t.Fatalf("injected panic must recover to ErrCandidatePanic: %v", err)
	}
	disarm()
	if err := Inject(context.Background(), "site.p"); err != nil {
		t.Errorf("disarmed site must be a no-op: %v", err)
	}
}

func TestInjectDelayHonorsContext(t *testing.T) {
	t.Cleanup(DisarmAll)
	Arm("site.d", Fault{Delay: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := Inject(ctx, "site.d")
	if time.Since(start) > 2*time.Second {
		t.Fatalf("delay must be cut short by the context")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("expired ctx during delay must yield ErrTimeout: %v", err)
	}
}

func TestInjectOnHit(t *testing.T) {
	t.Cleanup(DisarmAll)
	fired := 0
	Arm("site.h", Fault{Skip: 1, OnHit: func() { fired++ }})
	for i := 0; i < 3; i++ {
		_ = Inject(nil, "site.h")
	}
	if fired != 2 {
		t.Errorf("OnHit fired %d times, want 2 (skip the first hit)", fired)
	}
}

func TestCorruptFloat(t *testing.T) {
	t.Cleanup(DisarmAll)
	Arm("site.n", Fault{NaN: true, Skip: 1, Count: 1})
	if v := CorruptFloat("site.n", 7); v != 7 {
		t.Errorf("skip hit must pass through, got %v", v)
	}
	if v := CorruptFloat("site.n", 7); !math.IsNaN(v) {
		t.Errorf("armed hit must corrupt to NaN, got %v", v)
	}
	if v := CorruptFloat("site.n", 7); v != 7 {
		t.Errorf("count-exhausted hit must pass through, got %v", v)
	}
}

func TestInjectConcurrentHits(t *testing.T) {
	t.Cleanup(DisarmAll)
	sentinel := errors.New("hit")
	Arm("site.c", Fault{Skip: 10, Count: 5, Err: sentinel})
	var wg sync.WaitGroup
	var mu sync.Mutex
	fires := 0
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := Inject(context.Background(), "site.c"); err != nil {
					mu.Lock()
					fires++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fires != 5 {
		t.Errorf("fault fired %d times across goroutines, want exactly 5", fires)
	}
}

// TestArmSitesIndependent arms three sites and hammers them from parallel
// goroutines: each site keeps its own hit count, so every Skip/Count
// window fires exactly its intended number of hits.
func TestArmSitesIndependent(t *testing.T) {
	t.Cleanup(DisarmAll)
	errBoom := errors.New("boom")
	Arm("test.a", Fault{Err: errBoom})                     // every hit
	Arm("test.b", Fault{Skip: 10, Count: 5, Err: errBoom}) // hits 11..15
	Arm("test.c", Fault{Skip: 99, Err: errBoom})           // hits 100..

	const workers, perWorker = 8, 25 // 200 hits per site
	var mu sync.Mutex
	fired := map[string]int{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for _, site := range []string{"test.a", "test.b", "test.c"} {
					if Inject(context.Background(), site) != nil {
						mu.Lock()
						fired[site]++
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	for site, want := range map[string]int{"test.a": 200, "test.b": 5, "test.c": 101} {
		if fired[site] != want {
			t.Errorf("site %s fired %d times, want %d", site, fired[site], want)
		}
	}
}

// TestArmReplaces checks that arming an armed site replaces its fault and
// restarts its hit count, leaves other sites armed, and that each disarm
// clears only its own site.
func TestArmReplaces(t *testing.T) {
	t.Cleanup(DisarmAll)
	errFirst, errSecond := errors.New("first"), errors.New("second")
	disarmOther := Arm("test.other", Fault{Err: errFirst})
	Arm("test.r", Fault{Skip: 1, Err: errFirst})
	if err := Inject(nil, "test.r"); err != nil {
		t.Fatalf("skipped hit fired %v", err)
	}
	disarmR := Arm("test.r", Fault{Skip: 1, Err: errSecond})
	if err := Inject(nil, "test.r"); err != nil {
		t.Fatalf("re-arming must restart the hit count; first hit fired %v", err)
	}
	if err := Inject(nil, "test.r"); !errors.Is(err, errSecond) {
		t.Fatalf("re-armed site fired %v, want %v", err, errSecond)
	}
	if err := Inject(nil, "test.other"); !errors.Is(err, errFirst) {
		t.Fatalf("untouched site fired %v, want %v", err, errFirst)
	}
	disarmR()
	if err := Inject(nil, "test.r"); err != nil {
		t.Fatalf("after disarm, site still fires: %v", err)
	}
	if !Armed() {
		t.Fatal("test.other is still armed, Armed() should be true")
	}
	disarmOther()
	if Armed() {
		t.Fatal("all sites disarmed, Armed() should be false")
	}
}
