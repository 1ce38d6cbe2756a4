package chip

import (
	"bytes"
	"errors"
	"strconv"
	"sync"
	"testing"

	"neurometer/internal/guard"
)

func TestBuildCachedSharesOneChip(t *testing.T) {
	ResetBuildCache()
	cfg := dcPoint(32, 2, 2, 2)
	hits0, misses0 := mCacheHits.Value(), mCacheMisses.Value()

	a, err := BuildCached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical configs must share one memoized *Chip")
	}
	if got := mCacheMisses.Value() - misses0; got != 1 {
		t.Fatalf("cache misses = %d, want 1", got)
	}
	if got := mCacheHits.Value() - hits0; got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
}

func TestBuildCachedFingerprintSeparatesConfigs(t *testing.T) {
	a, b := dcPoint(32, 2, 2, 2), dcPoint(64, 2, 2, 2)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("distinct configs must have distinct fingerprints")
	}
	if a.Fingerprint() != dcPoint(32, 2, 2, 2).Fingerprint() {
		t.Fatal("equal configs must have equal fingerprints")
	}
}

func TestBuildCachedCachesDeterministicErrors(t *testing.T) {
	ResetBuildCache()
	_, err1 := BuildCached(Config{}) // invalid: everything missing
	if err1 == nil {
		t.Fatal("empty config must fail")
	}
	_, err2 := BuildCached(Config{})
	if !errors.Is(err2, guard.ErrInvalidConfig) {
		t.Fatalf("cached failure lost its classification: %v", err2)
	}
}

func TestBuildCachedSingleFlight(t *testing.T) {
	ResetBuildCache()
	cfg := dcPoint(32, 2, 2, 4)
	chips := make([]*Chip, 8)
	var wg sync.WaitGroup
	for i := range chips {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := BuildCached(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			chips[i] = c
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(chips); i++ {
		if chips[i] != chips[0] {
			t.Fatal("concurrent BuildCached calls must share one instance")
		}
	}
}

func TestBuildCachedBypassedWhileFaultArmed(t *testing.T) {
	defer guard.DisarmAll()
	ResetBuildCache()
	cfg := dcPoint(32, 4, 2, 2)

	// Arming any fault — even at an unrelated site — must take the cache
	// out of the path entirely, so injected faults land on their exact
	// rehearsed visit.
	disarm := guard.Arm("unrelated.site", guard.Fault{Err: errors.New("live")})
	a, err := BuildCached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("cache must be bypassed while a fault is armed")
	}
	disarm()

	// With faults disarmed the memo takes over again.
	c, err := BuildCached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildCached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c != d {
		t.Fatal("cache must memoize again after disarm")
	}
}

// The memo is bounded: one more distinct config than the cap (each an
// invalid, cheaply rejected one, as a daemon client might post) leaves at
// most buildCacheCap entries, and a valid config still builds the same
// chip as an unmemoized Build.
func TestBuildCachedBounded(t *testing.T) {
	ResetBuildCache()
	defer ResetBuildCache()
	for i := 0; i <= buildCacheCap; i++ {
		if _, err := BuildCached(Config{Name: "bad-" + strconv.Itoa(i)}); err == nil {
			t.Fatal("an empty config must fail to build")
		}
	}
	buildMu.Lock()
	n := len(buildCache)
	buildMu.Unlock()
	if n > buildCacheCap {
		t.Fatalf("memo holds %d entries after %d distinct builds, want at most %d", n, buildCacheCap+1, buildCacheCap)
	}

	cfg := dcPoint(32, 2, 2, 2)
	want, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildCached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.MarshalReport()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := got.MarshalReport()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("memoized build differs from Build:\n%s\n---\n%s", gotJSON, wantJSON)
	}
}
