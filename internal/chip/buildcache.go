package chip

import (
	"strconv"
	"sync"

	"neurometer/internal/guard"
	"neurometer/internal/memarray"
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
// two configs with equal fingerprints produce identical chips, and two
// configs that differ in any field have different fingerprints. It lists
// every field in declaration order, the nested core, memory-segment and
// off-chip entries included, each value followed by a comma: strings are
// length-prefixed, each slice is prefixed by its length, and floats take
// the shortest form that reads back to the same value ('g', -1; every NaN
// renders alike, and Validate rejects them all). The encoding is therefore
// self-delimiting, so no choice of names can make two configs render alike
// (TestFingerprintCraftedNames pins this, and
// TestFingerprintCoversEveryField fails when a field added to Config is
// left out here). The zero values that mean "auto" are part of the
// identity, matching Build's behavior of resolving them the same way every
// time.
func (c Config) Fingerprint() string {
	b := make([]byte, 0, 160+64*(len(c.Core.Mem)+len(c.OffChip)))
	b = fpStr(b, c.Name)
	b = fpInt(b, int64(c.TechNM))
	b = fpFloat(b, c.Vdd)
	b = fpFloat(b, c.ClockHz)
	b = fpFloat(b, c.TargetTOPS)
	b = fpInt(b, int64(c.Tx))
	b = fpInt(b, int64(c.Ty))

	cc := &c.Core
	b = fpInt(b, int64(cc.NumTUs))
	b = fpInt(b, int64(cc.TURows))
	b = fpInt(b, int64(cc.TUCols))
	b = fpInt(b, int64(cc.TUDataType))
	b = fpInt(b, int64(cc.TUInterconnect))
	b = fpInt(b, int64(cc.TUDataflow))
	b = fpInt(b, int64(cc.TULocalSpadBytes))
	b = fpInt(b, int64(cc.TULocalRegBytes))
	b = fpInt(b, int64(cc.NumRTs))
	b = fpInt(b, int64(cc.RTInputs))
	b = fpInt(b, int64(cc.VULanes))
	b = fpBool(b, cc.VUHasMAC)
	b = fpBool(b, cc.SharedVRegPorts)
	b = fpBool(b, cc.HasSU)
	b = fpInt(b, int64(len(cc.Mem)))
	for i := range cc.Mem {
		m := &cc.Mem[i]
		b = fpStr(b, m.Name)
		b = fpInt(b, m.CapacityBytes)
		b = fpInt(b, int64(m.BlockBytes))
		b = fpInt(b, int64(m.Banks))
		b = fpInt(b, int64(m.ReadPorts))
		b = fpInt(b, int64(m.WritePorts))
		b = fpFloat(b, m.ReadBytesPerCycle)
		b = fpFloat(b, m.WriteBytesPerCycle)
	}
	b = fpInt(b, int64(cc.MemCell))

	b = fpInt(b, int64(c.NoCTopology))
	b = fpFloat(b, c.NoCBisectionGBps)
	b = fpInt(b, int64(len(c.OffChip)))
	for i := range c.OffChip {
		p := &c.OffChip[i]
		b = fpInt(b, int64(p.Kind))
		b = fpFloat(b, p.GBps)
		b = fpInt(b, int64(p.Count))
	}
	b = fpFloat(b, c.WhiteSpaceFrac)
	b = fpFloat(b, c.AreaBudgetMM2)
	b = fpFloat(b, c.PowerBudgetW)
	return string(b)
}

// fpStr, fpInt, fpFloat and fpBool append one Fingerprint field.
func fpStr(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(append(b, s...), ',')
}

func fpInt(b []byte, v int64) []byte { return append(strconv.AppendInt(b, v, 10), ',') }

func fpFloat(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), ',')
}

func fpBool(b []byte, v bool) []byte {
	if v {
		return append(b, "1,"...)
	}
	return append(b, "0,"...)
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

// ResetBuildCache drops every memoized build, and the memory-array memo
// under it (memarray.BuildCached), so the next build is cold all the way
// down. Tests that recalibrate model constants (or measure cold-build cost)
// call it; production sweeps never need to.
func ResetBuildCache() {
	buildMu.Lock()
	clear(buildCache)
	buildMu.Unlock()
	memarray.ResetBuildCache()
}
