package chip

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
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

// craftedPair returns a Table I (64,2,2,4) chip and a one-tile chip with
// the same per-core memory, whose names are crafted from each other's
// field renderings: each name carries the %+v text of the fields between
// the chip name and the memory-segment name (the tile grid among them), so
// Go's struct formatting renders the two configs alike.
func craftedPair() (oneTile, eightTiles Config) {
	a, b := dcPoint(64, 2, 1, 1), dcPoint(64, 2, 2, 4)
	a.Core.Mem[0].CapacityBytes = b.Core.Mem[0].CapacityBytes
	between := func(c Config) string {
		c.Name, c.Core.Mem[0].Name = "\x00", "\x01"
		s := fmt.Sprintf("%+v", c)
		return s[strings.IndexByte(s, 0)+1 : strings.IndexByte(s, 1)]
	}
	ra, rb := between(a), between(b)
	a.Name, a.Core.Mem[0].Name = "n", rb+"m"
	b.Name, b.Core.Mem[0].Name = "n"+ra, "m"
	return a, b
}

// TestFingerprintCraftedNames checks that names cannot alias two configs:
// the crafted pair, which %+v renders alike, gets two fingerprints, and
// BuildCached gives each config its own chip.
func TestFingerprintCraftedNames(t *testing.T) {
	a, b := craftedPair()
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("premise: the crafted pair must render alike under Go struct formatting")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatalf("a one-tile and an eight-tile config share the fingerprint %q", a.Fingerprint())
	}
	ResetBuildCache()
	defer ResetBuildCache()
	for _, cfg := range []Config{a, b} {
		want, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildCached(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.AreaMM2() != want.AreaMM2() {
			t.Errorf("%dx%d tiles: BuildCached gives %.1f mm², Build %.1f mm²",
				cfg.Tx, cfg.Ty, got.AreaMM2(), want.AreaMM2())
		}
	}
}

// TestFingerprintCoversEveryField changes every leaf of a config in turn,
// the fields of each memory segment and off-chip port included, and
// shortens every slice, and checks that each change gives a fingerprint
// of its own. A field added to Config but not to Fingerprint fails here.
func TestFingerprintCoversEveryField(t *testing.T) {
	cfg := dcPoint(32, 2, 2, 2)
	cfg.Core.Mem = append(cfg.Core.Mem, MemSegment{Name: "wbuf", CapacityBytes: 1 << 20})
	base := cfg.Fingerprint()
	seen := map[string]string{base: "the unchanged config"}
	check := func(path string) {
		fp := cfg.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Errorf("changing %s gives the fingerprint of %s", path, prev)
			return
		}
		seen[fp] = path
	}
	leaves := 0
	var visit func(v reflect.Value, path string)
	visit = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				visit(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		case reflect.Slice:
			if v.Len() == 0 {
				t.Fatalf("%s is empty in the base config, so its element fields go unchecked", path)
			}
			orig := v.Slice(0, v.Len())
			v.Set(v.Slice(0, v.Len()-1))
			check(path + " (length)")
			v.Set(orig)
			for i := 0; i < v.Len(); i++ {
				visit(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
			return
		}
		orig := reflect.New(v.Type()).Elem()
		orig.Set(v)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(2*v.Float() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s: kind %s has no mutation here", path, v.Kind())
		}
		check(path)
		v.Set(orig)
		leaves++
	}
	visit(reflect.ValueOf(&cfg).Elem(), "Config")
	if cfg.Fingerprint() != base {
		t.Fatal("the walk did not restore the config")
	}
	if leaves < 40 {
		t.Fatalf("visited %d leaves; the walk missed part of Config", leaves)
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
