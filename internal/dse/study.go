package dse

import (
	"context"
	"sync"

	"neurometer/internal/guard"
	"neurometer/internal/perfsim"
	"neurometer/internal/workloads"
)

// Study is the wire-facing handle over a runtime study: a serving layer (or
// any outer search loop driving NeuroMeter as an evaluation oracle) accepts
// a StudySpec over the wire, materializes it once into a deterministic
// candidate list, and runs it. Two specs that describe the same study give
// byte-identical output.

// StudySpec describes a runtime study as pure data.
type StudySpec struct {
	// Constraints bounds the enumerated design space (TableI() for the
	// paper's datacenter sweep).
	Constraints Constraints
	// Spec selects the batch regime.
	Spec BatchSpec
	// Opt toggles the software optimizations.
	Opt perfsim.Options
	// Models names the workloads (workloads.ByName); empty = the full
	// Table II set.
	Models []string
}

// Study is a materialized, runnable StudySpec.
type Study struct {
	spec  StudySpec
	cands []Candidate
	sim   *studySim
}

// maxStudyPoints bounds the (X, N, grid) points one study may enumerate:
// 24× Table I's 168 and 5.8× a 13-X, 6-N, 256-tile sweep's 702. Every point
// is listed before any pruning, so without the bound a request body of
// distinct choices could ask for billions of them.
const maxStudyPoints = 4096

// NewStudy resolves a spec into a runnable study: workloads are looked up
// by name, and the design space is enumerated and reduced exactly as
// cmd/dse -fig 10 does (second-round pruning, keeping the enumeration's
// order: peak TOPS descending, then X descending, then tiles ascending).
// A spec that fails Check and an empty candidate set fail with guard
// taxonomy errors so callers can map them to 400/422 directly.
func NewStudy(ctx context.Context, spec StudySpec) (*Study, error) {
	names, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	sim := &studySim{prepareErr: make([]error, len(names))}
	for _, name := range names {
		p, err := bundled.Get(name)
		if err != nil {
			return nil, err
		}
		sim.names = append(sim.names, p.Name())
		sim.prepared = append(sim.prepared, p)
	}
	cands := EnumerateCtx(ctx, spec.Constraints)
	if err := guard.CtxErr(ctx); err != nil {
		return nil, err
	}
	cands = SecondRound(cands, spec.Constraints.TOPSCap)
	if len(cands) == 0 {
		return nil, guard.Infeasible("dse: study: no feasible candidates under the constraints")
	}
	return &Study{spec: spec, cands: cands, sim: sim}, nil
}

// Check runs the checks NewStudy makes before it enumerates anything: a
// design space of at most maxStudyPoints points, X and N choices that are
// positive and distinct, and known workload names. It costs microseconds,
// so a server can refuse a bad spec before it admits the study.
func (spec StudySpec) Check() error {
	_, err := spec.resolve()
	return err
}

// resolve checks the spec as Check documents and returns its workloads'
// names, each one the bundled memo holds; it prepares none of them.
func (spec StudySpec) resolve() ([]string, error) {
	if err := checkPoints(spec.Constraints); err != nil {
		return nil, err
	}
	if err := checkChoices("X choices", spec.Constraints.XChoices); err != nil {
		return nil, err
	}
	if err := checkChoices("N choices", spec.Constraints.NChoices); err != nil {
		return nil, err
	}
	names := spec.Models
	if len(names) == 0 {
		names = tableII
	}
	for _, name := range names {
		if _, ok := bundled[name]; !ok {
			_, err := workloads.ByName(name)
			return nil, guard.Invalid("dse: study: %v", err)
		}
	}
	return names, nil
}

// checkPoints rejects a design space of more than maxStudyPoints points
// before anything is enumerated. Each product it forms is at most the
// bound, so none can overflow.
func checkPoints(cs Constraints) error {
	x, n, g := len(cs.XChoices), len(cs.NChoices), len(gridShapes(cs.MaxTiles))
	if x == 0 || n == 0 || g == 0 {
		return nil
	}
	if x > maxStudyPoints/n || x*n > maxStudyPoints/g {
		return guard.Invalid("dse: study: %d X choices × %d N choices × %d grid shapes exceeds the %d-point limit",
			x, n, g, maxStudyPoints)
	}
	return nil
}

// checkChoices rejects a sweep axis with a non-positive or repeated value:
// a repeated value would enumerate each of its design points twice.
func checkChoices(name string, choices []int) error {
	seen := map[int]bool{}
	for _, v := range choices {
		if v <= 0 {
			return guard.Invalid("dse: study: %s must be positive, got %d", name, v)
		}
		if seen[v] {
			return guard.Invalid("dse: study: %s repeats %d", name, v)
		}
		seen[v] = true
	}
	return nil
}

// NumCandidates reports how many design points the study will evaluate.
func (s *Study) NumCandidates() int { return len(s.cands) }

// Run executes the study under the hardening envelope. An interrupted run
// (canceled ctx or an expired deadline) returns the rows completed so far
// with the classified cause. To resume, rerun the study with the same
// h.Results store: completed candidates come back as verified store hits,
// only the rest are simulated, and the output is byte-identical to an
// uninterrupted run.
//
// The study's workloads come from the bundled memo (BundledWorkloads), so
// a run prepares nothing.
func (s *Study) Run(ctx context.Context, h Hardening) ([]RuntimeRow, error) {
	sim := func() *studySim { return s.sim }
	return oneRegime(runStudy(ctx, s.cands, s.sim.names, sim, []BatchSpec{s.spec.Spec}, s.spec.Opt, h))
}

// tableII names the Table II workloads, the models of workloads.All() and
// of a StudySpec with no Models.
var tableII = []string{"resnet", "inception", "nasnet"}

// PreparedWorkloads maps every bundled workload name, aliases included, to
// that model's prepared workload, built on first use and kept for the
// process's life. Aliases of one model share one entry, and the map is
// complete when it is made, so an unknown name is never stored and the map
// needs no lock. It is read-only.
type PreparedWorkloads map[string]func() (*perfsim.Prepared, error)

// bundled is the process's one memo of prepared bundled workloads.
var bundled = newPreparedWorkloads()

// BundledWorkloads returns the process's one memo of prepared bundled
// workloads, which NewStudy, EdgeStudy and neurometerd's simulate routes
// share: each bundled model is prepared at most once per process.
func BundledWorkloads() PreparedWorkloads { return bundled }

func newPreparedWorkloads() PreparedWorkloads {
	m := PreparedWorkloads{}
	for _, names := range workloads.Names() {
		prepare := sync.OnceValues(func() (*perfsim.Prepared, error) {
			g, err := workloads.ByName(names[0])
			if err != nil {
				return nil, err
			}
			return perfsim.Prepare(g)
		})
		for _, name := range names {
			m[name] = prepare
		}
	}
	return m
}

// Get returns the prepared workload for name. An unknown name fails with
// guard.ErrInvalidConfig, carrying workloads.ByName's message.
func (m PreparedWorkloads) Get(name string) (*perfsim.Prepared, error) {
	prepare, ok := m[name]
	if !ok {
		_, err := workloads.ByName(name)
		return nil, guard.Invalid("%v", err)
	}
	return prepare()
}
