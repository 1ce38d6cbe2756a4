package memarray

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"neurometer/internal/obs"
	"neurometer/internal/tech/techtest"
)

// memoConfigs is the golden grid with every geometry also asked for under
// each of the grid's six demand variants, so the memo answers most
// organizations from a search made for another demand, and at the grid's
// other clock, a geometry of its own.
func memoConfigs() []Config {
	var out []Config
	for _, cfg := range goldenConfigs() {
		out = append(out, cfg)
		if cfg.CyclePS > 0 {
			c := cfg
			c.CyclePS = 1e12 / 700e6
			if cfg.CyclePS == c.CyclePS {
				c.CyclePS = 1e12 / 1e9
			}
			out = append(out, c)
		}
		for v := 0; v < 6; v++ {
			c := cfg
			c.Banks, c.ReadPorts, c.WritePorts = 0, 0, 0
			c.TargetLatencyPS, c.ReadBytesPerCycle, c.WriteBytesPerCycle = 0, 0, 0
			switch v {
			case 1:
				c.Banks = 4
			case 2:
				c.ReadPorts, c.WritePorts = 2, 1
			case 3:
				c.TargetLatencyPS = 1500
			case 4:
				c.ReadBytesPerCycle = 4 * float64(c.BlockBytes)
				c.WriteBytesPerCycle = 2 * float64(c.BlockBytes)
			case 5:
				c.Banks, c.ReadPorts, c.WritePorts = 2, 1, 1
			}
			out = append(out, c)
		}
	}
	return out
}

// sameOutcome reports how a and b (with their errors) differ, bit for bit,
// or "" when they do not.
func sameOutcome(a *Array, aErr error, b *Array, bErr error) string {
	if (aErr == nil) != (bErr == nil) {
		return fmt.Sprintf("error %v vs %v", aErr, bErr)
	}
	if aErr != nil {
		if aErr.Error() != bErr.Error() {
			return fmt.Sprintf("error %q vs %q", aErr, bErr)
		}
		return ""
	}
	if a.Cfg != b.Cfg || a.Org != b.Org {
		return fmt.Sprintf("%+v %+v vs %+v %+v", a.Cfg, a.Org, b.Cfg, b.Org)
	}
	am := [...]float64{a.AreaUM2(), a.ReadEnergyPJ(), a.WriteEnergyPJ(), a.LeakUW(), a.AccessDelayPS(), a.CycleDelayPS()}
	bm := [...]float64{b.AreaUM2(), b.ReadEnergyPJ(), b.WriteEnergyPJ(), b.LeakUW(), b.AccessDelayPS(), b.CycleDelayPS()}
	for i := range am {
		if math.Float64bits(am[i]) != math.Float64bits(bm[i]) {
			return fmt.Sprintf("metric %d: %v vs %v", i, am[i], bm[i])
		}
	}
	return ""
}

// freshBuilds builds every config with Build.
func freshBuilds(cfgs []Config) ([]*Array, []error) {
	arrs := make([]*Array, len(cfgs))
	errs := make([]error, len(cfgs))
	for i, cfg := range cfgs {
		arrs[i], errs[i] = Build(cfg)
	}
	return arrs, errs
}

func TestBuildCachedMatchesBuild(t *testing.T) {
	ResetBuildCache()
	defer ResetBuildCache()
	cfgs := memoConfigs()
	n := len(cfgs)
	evals := func() int64 { return obs.Default().Snapshot().Counters["memarray.evals"] }
	before := evals()
	want, wantErr := freshBuilds(cfgs)
	fresh := evals() - before
	forward, reverse, strided := make([]int, n), make([]int, n), make([]int, 0, n)
	for i := range forward {
		forward[i], reverse[i] = i, n-1-i
	}
	const stride = 7
	for r := 0; r < stride; r++ {
		for i := r; i < n; i += stride {
			strided = append(strided, i)
		}
	}
	orders := []struct {
		name  string
		order []int
	}{{"forward", forward}, {"reverse", reverse}, {"strided", strided}}
	for _, ord := range orders {
		// A fresh memo per order, so each order fills it differently;
		// repeated demands must come back as one Array until the memo
		// reaches a bound and is emptied (its counts fall).
		ResetBuildCache()
		before := evals()
		shared := map[Config]*Array{}
		repeats := 0
		stored := int64(0)
		for _, i := range ord.order {
			cfg := cfgs[i]
			got, gotErr := BuildCached(cfg)
			if d := sameOutcome(got, gotErr, want[i], wantErr[i]); d != "" {
				t.Fatalf("%s order, config %d (%+v): BuildCached differs from Build: %s", ord.name, i, cfg, d)
			}
			n := memoOrgs.Load() + memoDemands.Load()
			if n < stored {
				clear(shared)
			}
			stored = n
			if got == nil {
				continue
			}
			if prev, ok := shared[cfg]; ok {
				repeats++
				if prev != got {
					t.Fatalf("%s order, config %d: an equal config got a different array", ord.name, i)
				}
			}
			shared[cfg] = got
		}
		if repeats == 0 {
			t.Fatalf("%s order: no config repeated, so array sharing went untested", ord.name)
		}
		if scored := evals() - before; scored >= fresh {
			t.Fatalf("%s order: the memo scored %d organizations, Build %d; want fewer", ord.name, scored, fresh)
		}
	}

	// A voltage-scaled node is a different geometry from its nominal one.
	nominal := cfg28(1<<20, 64)
	scaled := nominal
	scaled.Node = techtest.MustByNode(28).WithVdd(0.75)
	a, err := BuildCached(nominal)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCached(scaled)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.ReadEnergyPJ() == b.ReadEnergyPJ() {
		t.Fatalf("nominal and 0.75 V arrays shared a memo entry: %v vs %v", a, b)
	}
	scaledFresh, _ := Build(scaled)
	if d := sameOutcome(b, nil, scaledFresh, nil); d != "" {
		t.Fatalf("0.75 V array differs from Build: %s", d)
	}

	// A repeated demand scores nothing, even of an organization outside
	// the search space (the vector register slice's 6R3W).
	vreg := cfg28(4096, 64)
	vreg.Banks, vreg.ReadPorts, vreg.WritePorts = 1, 6, 3
	want6R3W, wantErr6R3W := Build(vreg)
	before = evals()
	for i := 0; i < 2; i++ {
		got, gotErr := BuildCached(vreg)
		if d := sameOutcome(got, gotErr, want6R3W, wantErr6R3W); d != "" {
			t.Fatalf("6R3W array, request %d: %s", i+1, d)
		}
	}
	if scored := evals() - before; scored != 1 {
		t.Fatalf("two 6R3W requests scored %d organizations, want 1", scored)
	}
}

func TestArrayMemoConcurrent(t *testing.T) {
	ResetBuildCache()
	defer ResetBuildCache()
	// Overlapping geometries: memoConfigs asks for most geometries seven
	// times, and each goroutine walks the list from a different offset.
	cfgs := memoConfigs()
	want, wantErr := freshBuilds(cfgs)
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for k := range cfgs {
				i := (k + off) % len(cfgs)
				got, err := BuildCached(cfgs[i])
				if d := sameOutcome(got, err, want[i], wantErr[i]); d != "" {
					errs <- fmt.Sprintf("config %d: %s", i, d)
					return
				}
			}
		}(w * len(cfgs) / workers)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestArrayMemoBounds(t *testing.T) {
	ResetBuildCache()
	defer ResetBuildCache()
	held := func() (geometries int, orgs int64) {
		arrayMu.Lock()
		defer arrayMu.Unlock()
		return len(arrayMemo), memoOrgs.Load()
	}

	// Demands of one geometry up to the demand bound; the next request
	// empties the memo first. Every outcome still matches Build.
	base := cfg28(1<<20, 64)
	for i := 1; i <= demandMemoCap+1; i++ {
		cfg := base
		cfg.ReadBytesPerCycle = float64(i) / 64
		got, gotErr := BuildCached(cfg)
		if i%97 == 0 || i > demandMemoCap-2 {
			want, wantErr := Build(cfg)
			if d := sameOutcome(got, gotErr, want, wantErr); d != "" {
				t.Fatalf("demand %d: %s", i, d)
			}
		}
	}
	arrayMu.Lock()
	demands := 0
	for _, e := range arrayMemo {
		demands += len(e.built)
	}
	arrayMu.Unlock()
	if demands != 1 || memoDemands.Load() != 1 {
		t.Fatalf("past the demand bound the memo holds %d demands (counted %d), want 1", demands, memoDemands.Load())
	}
	ResetBuildCache()

	// Latency-targeted searches score every port pair, so a few dozen
	// geometries reach the organization bound; the next new geometry
	// empties the memo first. Every outcome still matches Build.
	searched := cfg28(1<<20, 64)
	searched.TargetLatencyPS = 1e6
	for i := 0; ; i++ {
		searched.CapacityBytes = int64(1<<20 + 64*i)
		got, gotErr := BuildCached(searched)
		want, wantErr := Build(searched)
		if d := sameOutcome(got, gotErr, want, wantErr); d != "" {
			t.Fatalf("geometry %d: %s", i, d)
		}
		if g, orgs := held(); orgs < orgMemoCap {
			continue
		} else if g != i+1 {
			t.Fatalf("memo holds %d geometries after %d", g, i+1)
		}
		break
	}
	searched.CapacityBytes = 1 << 19
	if _, err := BuildCached(searched); err != nil {
		t.Fatal(err)
	}
	if g, orgs := held(); g != 1 || orgs > int64(orgSlots) {
		t.Fatalf("past the organization bound the memo holds %d geometries, %d organizations; want 1 and at most %d", g, orgs, orgSlots)
	}

	// One geometry past the geometry bound empties the memo first.
	ResetBuildCache()
	fixed := cfg28(64, 4)
	fixed.Banks, fixed.ReadPorts, fixed.WritePorts = 1, 1, 1
	for i := 0; i <= arrayMemoCap; i++ {
		fixed.CapacityBytes = int64(64 + 4*i)
		if _, err := BuildCached(fixed); err != nil {
			t.Fatal(err)
		}
	}
	if g, _ := held(); g != 1 {
		t.Fatalf("past the geometry bound the memo holds %d geometries, want 1", g)
	}
}
