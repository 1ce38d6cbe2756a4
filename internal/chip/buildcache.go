package chip

import (
	"fmt"
	"sync"

	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// Build memoization. Design-space sweeps evaluate the same chip
// configuration many times — the figure drivers rebuild the named reference
// points Enumerate already built, benchmarks re-enumerate per iteration,
// and the three Fig. 10 batch regimes share one candidate set — so
// BuildCached keys finished builds (and deterministic build failures) on a
// canonical configuration fingerprint. A Chip is immutable after Build, so
// sharing one instance across concurrent sweep workers is safe.
//
// A long-lived process (neurometerd builds whatever configs clients post)
// would grow the memo without end, so it holds at most buildCacheCap
// entries and is emptied when a new one would pass that. The cap is far
// above any one sweep (Table I tries 168 points, 60 of which build).
var (
	mCacheHits   = obs.NewCounter("chip.build_cache_hits")
	mCacheMisses = obs.NewCounter("chip.build_cache_misses")

	buildMu    sync.Mutex
	buildCache = map[string]*buildCacheEntry{}
)

// buildCacheCap bounds the number of memoized builds.
const buildCacheCap = 4096

// buildCacheEntry holds one memoized Build outcome. The sync.Once gives
// single-flight semantics: concurrent requests for the same fingerprint
// build once and share the result.
type buildCacheEntry struct {
	once sync.Once
	chip *Chip
	err  error
}

// Fingerprint returns a canonical string identity for the configuration:
// two configs with equal fingerprints produce identical chips. It covers
// every field (including nested core, memory-segment and off-chip slices)
// via Go's deterministic struct formatting; the zero values that mean
// "auto" are part of the identity, matching Build's behavior of resolving
// them the same way every time.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("%+v", c)
}

// BuildCached is Build behind a process-wide memo keyed on
// Config.Fingerprint. Both successful chips and build errors are cached —
// build failures (validation, timing, budget) are deterministic, so
// re-evaluating them is pure waste. Hits and misses are counted in the
// chip.build_cache_hits / chip.build_cache_misses metrics. Emptying a full
// memo costs only rebuilds: Build is deterministic, so a rebuilt chip is
// identical to the dropped one.
//
// While any guard fault is armed the cache is bypassed entirely (no reads,
// no writes): injected panics, errors and NaNs must reach their victim on
// the exact rehearsed visit, and a cached result must never mask one.
func BuildCached(cfg Config) (*Chip, error) {
	if guard.Armed() {
		return Build(cfg)
	}
	key := cfg.Fingerprint()
	buildMu.Lock()
	entry, loaded := buildCache[key]
	if !loaded {
		if len(buildCache) >= buildCacheCap {
			clear(buildCache)
		}
		entry = &buildCacheEntry{}
		buildCache[key] = entry
	}
	buildMu.Unlock()
	if loaded {
		mCacheHits.Inc()
	} else {
		mCacheMisses.Inc()
	}
	entry.once.Do(func() {
		entry.chip, entry.err = Build(cfg)
	})
	return entry.chip, entry.err
}

// ResetBuildCache drops every memoized build. Tests that recalibrate model
// constants (or measure cold-build cost) call it; production sweeps never
// need to.
func ResetBuildCache() {
	buildMu.Lock()
	clear(buildCache)
	buildMu.Unlock()
}
