package chaos

import (
	"fmt"
	"math/rand"
	"sort"
)

// siteEffects classifies every production fault site by the effects the
// chaos engine may arm there *without* breaking the output contract the
// invariants assert:
//
//   - rstore.* sites absorb errors by construction (a failed read or
//     write degrades to recomputation), so err is fair game.
//   - model-layer sites (chip.build, perfsim.*, dse.candidate) sit on the
//     serial evaluation path: an injected error there makes a candidate
//     legitimately fail and a row legitimately disappear, which is not an
//     invariant violation but would make byte-identity meaningless. They
//     get delay-only faults — exercising timeout/cancellation plumbing
//     while keeping output exact.
//   - perfsim.achieved_tops is the NaN-corruption site; arming it flips
//     the episode to the relaxed output contract (Schedule.OutputExact).
var siteEffects = map[string][]string{
	"chip.build":            {EffectDelay},
	"perfsim.simulate":      {EffectDelay},
	"perfsim.layer":         {EffectDelay},
	"perfsim.achieved_tops": {EffectNaN},
	"dse.candidate":         {EffectDelay},
	"rstore.read":           {EffectErr, EffectDelay},
	"rstore.write":          {EffectErr, EffectDelay},
	"rstore.scan":           {EffectErr},
}

// Scenario is a named region of the schedule space: which sites and ops
// the generator draws from, whether the episode runs over a result store,
// and anchor events that make every episode of the scenario exercise its
// namesake machinery even at seeds whose random draws are tame.
type Scenario struct {
	Name  string
	Store bool
	// Sites the generator always arms once (deterministic coverage).
	Sites []string
	// ExtraSites the generator may additionally draw from (probabilistic;
	// this is where output-relaxing effects like NaN live).
	ExtraSites []string
	// Ops the generator may draw ops from.
	Ops []string
	// Anchors are fixed events present in every episode of the scenario.
	Anchors []Event
	// MinExtra..MaxExtra bounds the number of random events on top of the
	// per-site coverage faults and anchors.
	MinExtra, MaxExtra int
}

// storeOps are the result-store damage ops.
var storeOps = []string{OpCorruptEntry, OpTruncateEntry, OpPlantTmp}

// scenarios is the registry, ordered for -scenario listings. Between
// them the Sites/ExtraSites lists cover the complete guard registry —
// chaos_test pins that against guard.Sites().
var scenarios = []Scenario{
	{
		Name:  "cache",
		Store: true,
		Sites: []string{"rstore.read", "rstore.write", "rstore.scan"},
		Ops:   storeOps,
		Anchors: []Event{
			{Kind: KindOp, Op: OpCorruptEntry, Entry: 0},
			{Kind: KindOp, Op: OpPlantTmp},
		},
		MinExtra: 1, MaxExtra: 5,
	},
	{
		// mixed crosses store damage with model-layer faults: delays on
		// the evaluation path and NaN corruption of a metric.
		Name:  "mixed",
		Store: true,
		Sites: []string{"rstore.read", "rstore.write"},
		ExtraSites: []string{
			"chip.build", "perfsim.simulate", "perfsim.layer", "perfsim.achieved_tops",
			"dse.candidate", "rstore.scan",
		},
		Ops: storeOps,
		Anchors: []Event{
			{Kind: KindOp, Op: OpTruncateEntry, Entry: 1},
		},
		MinExtra: 2, MaxExtra: 6,
	},
	{
		// planted exists to prove the loop can catch and shrink a real
		// violation: its anchor deliberately breaks the gauge-drain
		// invariant, and the noise events are all removable, so the
		// shrinker must reduce any failing planted episode to one event.
		Name:  "planted",
		Sites: []string{"chip.build", "perfsim.layer"},
		Ops:   []string{OpViolate},
		Anchors: []Event{
			{Kind: KindOp, Op: OpViolate},
		},
		MinExtra: 2, MaxExtra: 4,
	},
}

// ScenarioNames lists the registered scenarios in order.
func ScenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.Name
	}
	return names
}

func findScenario(name string) (Scenario, error) {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("chaos: unknown scenario %q (have %v)", name, ScenarioNames())
}

// Generate derives the schedule for (scenario, seed). Pure function of
// its arguments: the same pair always yields the same schedule, byte for
// byte — the foundation of the replay and shrink story.
func Generate(scenario string, seed int64) (*Schedule, error) {
	sc, err := findScenario(scenario)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{
		FormatVersion: FormatVersion,
		Scenario:      sc.Name,
		Seed:          seed,
		Store:         sc.Store,
	}

	// One coverage fault per scenario site, deterministically present so
	// every episode reaches its scenario's machinery.
	for _, site := range sc.Sites {
		s.Events = append(s.Events, genFault(rng, site))
	}
	s.Events = append(s.Events, sc.Anchors...)

	// Extra random events: more faults (including ExtraSites) and ops.
	extra := sc.MinExtra
	if sc.MaxExtra > sc.MinExtra {
		extra += rng.Intn(sc.MaxExtra - sc.MinExtra + 1)
	}
	pool := append(append([]string{}, sc.Sites...), sc.ExtraSites...)
	for i := 0; i < extra; i++ {
		if len(sc.Ops) > 0 && rng.Float64() < 0.4 {
			s.Events = append(s.Events, genOp(rng, sc))
		} else {
			s.Events = append(s.Events, genFault(rng, pool[rng.Intn(len(pool))]))
		}
	}
	// Faults first, ops after, each in draw order: ops apply in schedule
	// order, and fault order within a site is irrelevant across sites.
	sort.SliceStable(s.Events, func(i, j int) bool {
		if s.Events[i].Kind != s.Events[j].Kind {
			return s.Events[i].Kind == KindFault
		}
		return false
	})
	return s, nil
}

// genFault draws one fault event for site: an allowed effect, a hit
// window, and for roughly a third of the draws probabilistic arming.
func genFault(rng *rand.Rand, site string) Event {
	effects := siteEffects[site]
	e := Event{
		Kind:   KindFault,
		Site:   site,
		Effect: effects[rng.Intn(len(effects))],
		Skip:   rng.Intn(6),
		Count:  1 + rng.Intn(3),
	}
	if e.Effect == EffectDelay {
		e.DelayMS = 1 + rng.Intn(25)
	}
	if rng.Float64() < 0.33 {
		e.Prob = 0.25 + 0.5*rng.Float64()
		e.Count = 0 // probabilistic faults are windowed by the coin, not a cap
	}
	if e.Effect == EffectNaN {
		// NaN removes rows (legitimately); keep the blast radius small so
		// a relaxed-contract episode still emits most of the study.
		e.Prob = 0
		e.Count = 1 + rng.Intn(2)
	}
	return e
}

// genOp draws one op for the scenario.
func genOp(rng *rand.Rand, sc Scenario) Event {
	e := Event{Kind: KindOp, Op: sc.Ops[rng.Intn(len(sc.Ops))]}
	if e.Op == OpCorruptEntry || e.Op == OpTruncateEntry {
		e.Entry = rng.Intn(8)
	}
	return e
}
