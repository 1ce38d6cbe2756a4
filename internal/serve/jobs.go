package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"neurometer/internal/dse"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/perfsim"
)

// The async DSE job API. A study's identity is its fingerprint — the
// constraints, batch regime, options, workloads, and candidate list that
// determine its output — and the job ID is a hash of that fingerprint.
// Idempotence falls out: resubmitting the same study returns the same job,
// whether it is queued, running or finished. A job interrupted by a drain
// is not revived in place; the study is resubmitted to the next server,
// which reruns it. With a shared Config.Results store the rerun serves the
// candidates that finished as store hits and simulates only the rest, and
// the output is byte-identical either way.

var (
	mJobsSubmitted = obs.NewCounter("serve.jobs_submitted")
	mJobsDone      = obs.NewCounter("serve.jobs_completed")
	mJobsFailed    = obs.NewCounter("serve.jobs_failed")
	gJobsRunning   = obs.NewGauge("serve.jobs_running")
)

// Job states.
const (
	JobQueued      = "queued"
	JobRunning     = "running"
	JobDone        = "done"
	JobFailed      = "failed"
	JobInterrupted = "interrupted" // shutdown drained it; resubmit to the next server
)

// StudyRequest describes a study job. The zero value means: the paper's
// Table I constraints, second-round reduction, batch 1, all workloads, all
// optimizations.
type StudyRequest struct {
	// Regime picks a Fig. 10 batch regime ("a-small" | "b-medium" |
	// "c-large"); alternatively set Batch or LatencyBoundMS directly.
	Regime         string  `json:"regime,omitempty"`
	Batch          int     `json:"batch,omitempty"`
	LatencyBoundMS float64 `json:"latency_bound_ms,omitempty"`
	// Models restricts the workload set (names as in /v1/perfsim/simulate).
	Models []string `json:"models,omitempty"`
	// Sweep-shrinking knobs (defaults: the Table I choices).
	XChoices []int `json:"x_choices,omitempty"`
	NChoices []int `json:"n_choices,omitempty"`
	MaxTiles int   `json:"max_tiles,omitempty"`
	// Hardening overrides.
	CandidateTimeoutMS int `json:"candidate_timeout_ms,omitempty"`
	Retries            int `json:"retries,omitempty"`
	Workers            int `json:"workers,omitempty"`
	// Wait blocks the request until the job finishes (bounded by the
	// request deadline) instead of returning 202 immediately.
	Wait bool `json:"wait,omitempty"`
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

// job is one study's lifecycle record.
type job struct {
	id    string
	study *dse.Study
	hard  dse.Hardening

	cancel context.CancelFunc
	done   chan struct{} // closed when the run goroutine finishes

	mu    sync.Mutex
	state string
	rows  []dse.RuntimeRow
	err   error
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

// JobStatus is the wire form of a job.
type JobStatus struct {
	ID         string           `json:"id"`
	State      string           `json:"state"`
	Candidates int              `json:"candidates"`
	Rows       []dse.RuntimeRow `json:"rows,omitempty"`
	CSV        string           `json:"csv,omitempty"`
	Error      string           `json:"error,omitempty"`
	Kind       string           `json:"kind,omitempty"`
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		State:      j.state,
		Candidates: j.study.NumCandidates(),
	}
	if j.state == JobDone {
		st.Rows = j.rows
		st.CSV = dse.RuntimeRowsCSV(j.rows)
	}
	if j.err != nil {
		st.Error = j.err.Error()
		st.Kind = guard.Kind(j.err)
	}
	return st
}

// jobStore owns every job of this process plus the run-slot semaphore.
type jobStore struct {
	s    *Server
	sem  chan struct{} // running-study slots
	mu   sync.Mutex
	jobs map[string]*job
	wg   sync.WaitGroup
}

func newJobStore(s *Server) *jobStore {
	return &jobStore{
		s:    s,
		sem:  make(chan struct{}, s.cfg.StudyLimit),
		jobs: map[string]*job{},
	}
}

// jobID hashes a study fingerprint into the stable, URL-safe job identity.
func jobID(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return hex.EncodeToString(sum[:8])
}

func (st *jobStore) running() int {
	return len(st.sem)
}

func (st *jobStore) queued() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, j := range st.jobs {
		j.mu.Lock()
		if j.state == JobQueued {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// submit registers (or finds) the job for a study and starts it. A
// draining server sheds every submission, resubmissions of known jobs
// included. The queued-job bound is the job API's admission control:
// beyond it new studies shed with ErrShed rather than queueing
// unboundedly.
func (st *jobStore) submit(study *dse.Study, hard dse.Hardening) (*job, bool, error) {
	if st.s.isDraining() {
		return nil, false, fmt.Errorf("%w: server is draining", ErrShed)
	}
	id := jobID(study.Fingerprint())
	st.mu.Lock()
	if j, ok := st.jobs[id]; ok {
		st.mu.Unlock()
		return j, false, nil // idempotent resubmission
	}
	if n := st.queuedLocked(); n >= st.s.cfg.MaxQueuedJobs {
		st.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %d study jobs already queued", ErrShed, n)
	}
	j := &job{
		id:    id,
		study: study,
		hard:  hard,
		state: JobQueued,
		done:  make(chan struct{}),
	}
	st.jobs[id] = j
	st.mu.Unlock()
	mJobsSubmitted.Inc()
	st.start(j)
	return j, true, nil
}

// queuedLocked is queued() for callers already holding st.mu.
func (st *jobStore) queuedLocked() int {
	n := 0
	for _, j := range st.jobs {
		j.mu.Lock()
		if j.state == JobQueued {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// start launches the job goroutine: wait for a run slot, execute the study
// under the server's base context, record the outcome.
func (st *jobStore) start(j *job) {
	ctx, cancel := context.WithCancel(st.s.baseCtx)
	j.mu.Lock()
	j.cancel = cancel
	done := j.done
	j.mu.Unlock()
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		defer close(done)
		select {
		case st.sem <- struct{}{}:
			defer func() { <-st.sem }()
		case <-ctx.Done():
			// Drained while queued: nothing ran.
			j.setState(JobInterrupted)
			return
		}
		j.setState(JobRunning)
		gJobsRunning.Add(1)
		defer gJobsRunning.Add(-1)

		rows, err := j.study.Run(ctx, j.hard)
		j.mu.Lock()
		defer j.mu.Unlock()
		switch {
		case err == nil:
			j.state, j.rows, j.err = JobDone, rows, nil
			mJobsDone.Inc()
		case errors.Is(err, guard.ErrCanceled) && st.s.isDraining():
			// The drain canceled us. Every finished candidate's row is
			// already in the result store (when one is configured).
			j.state, j.err = JobInterrupted, err
			slog.Info("serve: study job interrupted by drain",
				"job", j.id, "rows_done", len(rows))
		default:
			j.state, j.err = JobFailed, err
			mJobsFailed.Inc()
			slog.Warn("serve: study job failed", "job", j.id,
				"kind", guard.Kind(err), "err", err)
		}
	}()
}

// shutdown cancels every running job and waits (bounded by ctx) for the
// goroutines to unwind.
func (st *jobStore) shutdown(ctx context.Context) error {
	st.mu.Lock()
	for _, j := range st.jobs {
		j.mu.Lock()
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	st.mu.Unlock()
	finished := make(chan struct{})
	go func() {
		st.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: job drain incomplete: %w", guard.CtxErr(ctx))
	}
}

// ---- handlers -------------------------------------------------------------

func (s *Server) studySubmit(r *http.Request) (int, any, error) {
	var req StudyRequest
	if err := decodeBody(r, &req); err != nil {
		return 0, nil, err
	}
	spec, err := req.spec()
	if err != nil {
		return 0, nil, err
	}
	study, err := dse.NewStudy(r.Context(), spec)
	if err != nil {
		return 0, nil, err
	}
	hard := dse.Hardening{
		CandidateTimeout: time.Duration(req.CandidateTimeoutMS) * time.Millisecond,
		MaxRetries:       req.Retries,
		Workers:          s.cfg.Workers,
		// Study jobs read through the shared result store (nil = disabled).
		Results: s.cfg.Results,
	}
	if req.Workers > 0 {
		hard.Workers = req.Workers
	}
	j, _, err := s.jobs.submit(study, hard)
	if err != nil {
		return 0, nil, err
	}
	if !req.Wait {
		return http.StatusAccepted, j.status(), nil
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The job keeps running server-side; the client just stopped
		// waiting. 504/499 per the deadline-vs-disconnect cause.
		return 0, nil, guard.CtxErr(r.Context())
	}
	status := j.status()
	if status.State == JobFailed {
		// Surface the job failure with its mapped HTTP status so a
		// synchronous caller sees exactly what an inline endpoint would
		// have returned.
		j.mu.Lock()
		err := j.err
		j.mu.Unlock()
		return 0, nil, err
	}
	return http.StatusOK, status, nil
}

func (s *Server) studyGet(r *http.Request) (int, any, error) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		return 0, nil, guard.Invalid("unknown job %q", id)
	}
	return http.StatusOK, j.status(), nil
}
