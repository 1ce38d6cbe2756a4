package serve

import (
	"net/http"

	"neurometer/internal/dse"
	"neurometer/internal/guard"
	"neurometer/internal/perfsim"
)

// StudyRequest describes a study. The zero value means: the paper's
// Table I constraints, second-round reduction, batch 1, all workloads, all
// optimizations. The request deadline (?timeout_ms=) bounds the whole
// study; a field this type does not name, such as the removed
// candidate_timeout_ms and retries, is refused with 400, and so is a
// negative batch, latency_bound_ms or max_tiles.
type StudyRequest struct {
	// Regime picks a Fig. 10 batch regime ("a-small" | "b-medium" |
	// "c-large"); alternatively set Batch or LatencyBoundMS directly.
	Regime         string  `json:"regime,omitempty"`
	Batch          int     `json:"batch,omitempty"`
	LatencyBoundMS float64 `json:"latency_bound_ms,omitempty"`
	// Models restricts the workload set (names as in /v1/perfsim/simulate).
	Models []string `json:"models,omitempty"`
	// Sweep-shrinking knobs (defaults: the Table I choices). A sweep of
	// more than 4096 (X, N, grid) points is refused with 400.
	XChoices []int `json:"x_choices,omitempty"`
	NChoices []int `json:"n_choices,omitempty"`
	MaxTiles int   `json:"max_tiles,omitempty"`
}

// spec resolves the request into a dse.StudySpec.
func (sr StudyRequest) spec() (dse.StudySpec, error) {
	cs := dse.TableI()
	if len(sr.XChoices) > 0 {
		cs.XChoices = sr.XChoices
	}
	if len(sr.NChoices) > 0 {
		cs.NChoices = sr.NChoices
	}
	if sr.MaxTiles < 0 {
		return dse.StudySpec{}, guard.Invalid("max_tiles must be positive, got %d", sr.MaxTiles)
	}
	if sr.MaxTiles > 0 {
		cs.MaxTiles = sr.MaxTiles
	}
	var spec dse.BatchSpec
	switch {
	case sr.Regime != "" && (sr.Batch != 0 || sr.LatencyBoundMS != 0):
		return dse.StudySpec{}, guard.Invalid("give a regime or an explicit batch spec, not both")
	case sr.Regime == "a-small":
		spec = dse.BatchSpec{Fixed: 1}
	case sr.Regime == "b-medium":
		spec = dse.BatchSpec{LatencyBound: 10e-3}
	case sr.Regime == "c-large":
		spec = dse.BatchSpec{Fixed: 256}
	case sr.Regime != "":
		return dse.StudySpec{}, guard.Invalid("unknown regime %q", sr.Regime)
	case sr.Batch != 0 && sr.LatencyBoundMS != 0:
		return dse.StudySpec{}, guard.Invalid("give batch or latency_bound_ms, not both")
	case sr.Batch < 0:
		return dse.StudySpec{}, guard.Invalid("batch must be positive, got %d", sr.Batch)
	case sr.Batch > 0:
		spec = dse.BatchSpec{Fixed: sr.Batch}
	case sr.LatencyBoundMS < 0:
		return dse.StudySpec{}, guard.Invalid("latency_bound_ms must be positive, got %g", sr.LatencyBoundMS)
	case sr.LatencyBoundMS > 0:
		spec = dse.BatchSpec{LatencyBound: sr.LatencyBoundMS * 1e-3}
	default:
		spec = dse.BatchSpec{Fixed: 1}
	}
	return dse.StudySpec{
		Constraints: cs,
		Spec:        spec,
		Opt:         perfsim.DefaultOptions(),
		Models:      sr.Models,
	}, nil
}

// StudyResponse is the study route's answer: the number of candidates
// studied, one row per candidate that produced one, and the same rows as
// CSV (dse.RuntimeRowsCSV).
type StudyResponse struct {
	Candidates int              `json:"candidates"`
	Rows       []dse.RuntimeRow `json:"rows"`
	CSV        string           `json:"csv"`
}

// studyHandler runs a whole study inside the request, under the request
// deadline. It checks the body first and only then takes a dse.study slot,
// so a malformed or over-cap study gets 400 however busy the route is. A
// study that does not finish in time fails with the classified context
// error (504 or 499); with a result store, the candidates it finished are
// stored, and posting it again simulates only the rest.
func (s *Server) studyHandler(r *http.Request) (int, any, error) {
	var req StudyRequest
	if err := decodeBody(r, &req); err != nil {
		return 0, nil, err
	}
	spec, err := req.spec()
	if err != nil {
		return 0, nil, err
	}
	if err := spec.Check(); err != nil {
		return 0, nil, err
	}
	release, err := s.limStudy.acquire(r.Context())
	if err != nil {
		return 0, nil, err
	}
	defer release()
	study, err := dse.NewStudy(r.Context(), spec)
	if err != nil {
		return 0, nil, err
	}
	rows, err := study.Run(r.Context(), dse.Hardening{
		Workers: s.cfg.Workers,
		Results: s.cfg.Results, // nil = no result store
	})
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, StudyResponse{
		Candidates: study.NumCandidates(),
		Rows:       rows,
		CSV:        dse.RuntimeRowsCSV(rows),
	}, nil
}
