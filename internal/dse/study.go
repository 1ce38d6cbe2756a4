package dse

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/perfsim"
	"neurometer/internal/workloads"
)

// Study is the job-facing handle over a runtime study: a serving layer (or
// any outer search loop driving NeuroMeter as an evaluation oracle) accepts
// a StudySpec over the wire, materializes it once into a deterministic
// candidate list, and gets a stable fingerprint that doubles as an
// idempotent job identity — two requests describing the same study resolve
// to the same fingerprint and byte-identical output.

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
	spec        StudySpec
	cands       []Candidate
	models      []*graph.Graph
	fingerprint string
}

// NewStudy resolves a spec into a runnable study: workloads are looked up
// by name, the design space is enumerated and reduced exactly as cmd/dse
// -fig 10 does (second-round pruning, keeping the enumeration's order:
// peak TOPS descending, then X descending, then tiles ascending), and the
// study fingerprint is derived from the surviving candidate list. Unknown
// workload names, duplicate or non-positive X and N choices, and empty
// candidate sets fail with guard taxonomy errors so callers can map them
// to 400/422 directly.
func NewStudy(ctx context.Context, spec StudySpec) (*Study, error) {
	if err := checkChoices("X choices", spec.Constraints.XChoices); err != nil {
		return nil, err
	}
	if err := checkChoices("N choices", spec.Constraints.NChoices); err != nil {
		return nil, err
	}
	models := workloads.All()
	if len(spec.Models) > 0 {
		models = models[:0:0]
		for _, name := range spec.Models {
			g, err := workloads.ByName(name)
			if err != nil {
				return nil, guard.Invalid("dse: study: %v", err)
			}
			models = append(models, g)
		}
	}
	cands := EnumerateCtx(ctx, spec.Constraints)
	if err := guard.CtxErr(ctx); err != nil {
		return nil, err
	}
	cands = SecondRound(cands, spec.Constraints.TOPSCap)
	if len(cands) == 0 {
		return nil, guard.Infeasible("dse: study: no feasible candidates under the constraints")
	}
	return &Study{
		spec:        spec,
		cands:       cands,
		models:      models,
		fingerprint: StudyFingerprint(cands, models, spec.Spec, spec.Opt),
	}, nil
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

// StudyFingerprint derives the identity of a runtime study from everything
// that determines its output: batch spec, options, workloads and the
// candidate list. Two studies with the same fingerprint are
// interchangeable. The batch spec is rendered exactly, the latency bound in
// the shortest form that reads back to the same value, so two bounds that
// differ by any amount never share a fingerprint. The leading "v2" names
// this rendering: a job ID hashed from it is stable only across builds
// that render the same version, and "v1" (which rounded the bound to the
// millisecond) IDs do not carry over.
func StudyFingerprint(cands []Candidate, models []*graph.Graph, spec BatchSpec, opt perfsim.Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "v2|spec=%d,%s|opt=%+v|models=", spec.Fixed,
		strconv.FormatFloat(spec.LatencyBound, 'g', -1, 64), opt)
	for i, g := range models {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(g.Name)
	}
	b.WriteString("|points=")
	for i, c := range cands {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.Point.String())
	}
	return b.String()
}

// Fingerprint identifies the study: everything that determines its output.
// Equal fingerprints mean interchangeable studies; the serving layer
// hashes it into the job ID.
func (s *Study) Fingerprint() string { return s.fingerprint }

// NumCandidates reports how many design points the study will evaluate.
func (s *Study) NumCandidates() int { return len(s.cands) }

// Run executes the study under the hardening envelope. An interrupted run
// (canceled ctx) returns the rows completed so far with the classified
// cause. To resume, rerun the study with the same h.Results store:
// completed candidates come back as verified store hits, only the rest
// are simulated, and the output is byte-identical to an uninterrupted run.
func (s *Study) Run(ctx context.Context, h Hardening) ([]RuntimeRow, error) {
	return RuntimeStudyHardened(ctx, s.cands, s.models, s.spec.Spec, s.spec.Opt, h)
}
