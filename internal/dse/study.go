package dse

import (
	"context"

	"neurometer/internal/graph"
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
	spec   StudySpec
	cands  []Candidate
	models []*graph.Graph
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
	models, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	cands := EnumerateCtx(ctx, spec.Constraints)
	if err := guard.CtxErr(ctx); err != nil {
		return nil, err
	}
	cands = SecondRound(cands, spec.Constraints.TOPSCap)
	if len(cands) == 0 {
		return nil, guard.Infeasible("dse: study: no feasible candidates under the constraints")
	}
	return &Study{spec: spec, cands: cands, models: models}, nil
}

// Check runs the checks NewStudy makes before it enumerates anything: a
// design space of at most maxStudyPoints points, X and N choices that are
// positive and distinct, and known workload names. It costs microseconds,
// so a server can refuse a bad spec before it admits the study.
func (spec StudySpec) Check() error {
	_, err := spec.resolve()
	return err
}

// resolve checks the spec as Check documents and looks up its workloads.
func (spec StudySpec) resolve() ([]*graph.Graph, error) {
	if err := checkPoints(spec.Constraints); err != nil {
		return nil, err
	}
	if err := checkChoices("X choices", spec.Constraints.XChoices); err != nil {
		return nil, err
	}
	if err := checkChoices("N choices", spec.Constraints.NChoices); err != nil {
		return nil, err
	}
	if len(spec.Models) == 0 {
		return workloads.All(), nil
	}
	models := make([]*graph.Graph, 0, len(spec.Models))
	for _, name := range spec.Models {
		g, err := workloads.ByName(name)
		if err != nil {
			return nil, guard.Invalid("dse: study: %v", err)
		}
		models = append(models, g)
	}
	return models, nil
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
func (s *Study) Run(ctx context.Context, h Hardening) ([]RuntimeRow, error) {
	return RuntimeStudyHardened(ctx, s.cands, s.models, s.spec.Spec, s.spec.Opt, h)
}
