package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"neurometer/internal/apicfg"
	"neurometer/internal/chip"
	"neurometer/internal/dse"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/perfsim"
	"neurometer/internal/rstore"
	"neurometer/internal/workloads"
)

// Config sizes the server's robustness envelope. The zero value of any
// field falls back to the DefaultConfig value.
type Config struct {
	// BuildLimit / SimulateLimit bound concurrent executions per endpoint;
	// StudyLimit bounds concurrently *running* study jobs.
	BuildLimit    int
	SimulateLimit int
	StudyLimit    int
	// QueueDepth bounds how many admitted requests may wait for a slot per
	// endpoint; beyond it requests shed immediately.
	QueueDepth int
	// MaxQueuedJobs bounds submitted-but-not-running study jobs.
	MaxQueuedJobs int
	// AdmissionTimeout bounds how long a queued request waits for a slot.
	AdmissionTimeout time.Duration
	// RequestTimeout is the default per-request deadline (tightened per
	// request with ?timeout_ms=).
	RequestTimeout time.Duration
	// ShedWatermark sheds build/simulate requests while dse.eval_inflight
	// is at or above it (0 disables cost-aware shedding).
	ShedWatermark float64
	// DegradedAfter consecutive 5xx responses trip /readyz degraded
	// (0 falls back to the default; negative disables the watchdog).
	DegradedAfter int
	// Workers is the dse evaluation pool size for study jobs.
	Workers int
	// MaxBodyBytes bounds request bodies; an overflowing body is rejected
	// with 413 and kind=too-large.
	MaxBodyBytes int64
	// RetryAfterJitter widens the Retry-After hint on 429 responses by a
	// uniform 0..RetryAfterJitter seconds, de-synchronizing shed clients
	// that would otherwise all retry on the same tick. Negative disables.
	RetryAfterJitter int
	// Results, when non-nil, is the persistent content-addressed result
	// store study jobs read through (dse.Hardening.Results), so a study
	// whose candidates were already evaluated serves them from disk. nil
	// disables result caching; store faults degrade to evaluation and
	// never fail a request.
	Results *rstore.Cache
	// AccessLog, when non-nil, receives one structured line per request on
	// the model endpoints (request id, route, status, disposition, latency,
	// slow flag). nil disables access logging.
	AccessLog *slog.Logger
	// SlowRequest is the latency at or above which an access-log line is
	// flagged slow=true (0 falls back to the default; negative disables).
	SlowRequest time.Duration
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		BuildLimit:       8,
		SimulateLimit:    4,
		StudyLimit:       1,
		RetryAfterJitter: 3,
		QueueDepth:       16,
		MaxQueuedJobs:    8,
		AdmissionTimeout: time.Second,
		RequestTimeout:   30 * time.Second,
		DegradedAfter:    5,
		Workers:          dse.DefaultWorkers,
		MaxBodyBytes:     1 << 20,
		SlowRequest:      time.Second,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.BuildLimit == 0 {
		c.BuildLimit = d.BuildLimit
	}
	if c.SimulateLimit == 0 {
		c.SimulateLimit = d.SimulateLimit
	}
	if c.StudyLimit == 0 {
		c.StudyLimit = d.StudyLimit
	}
	if c.RetryAfterJitter == 0 {
		c.RetryAfterJitter = d.RetryAfterJitter
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.MaxQueuedJobs == 0 {
		c.MaxQueuedJobs = d.MaxQueuedJobs
	}
	if c.AdmissionTimeout == 0 {
		c.AdmissionTimeout = d.AdmissionTimeout
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.DegradedAfter == 0 {
		c.DegradedAfter = d.DegradedAfter
	}
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = d.SlowRequest
	}
	return c
}

// Server is the neurometerd HTTP service. Create with New, mount Handler
// (or ListenAndServe), and always Shutdown — it owns running study jobs.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	http *http.Server
	wd   *watchdog
	jobs *jobStore

	limBuild  *limiter
	limSim    *limiter
	accessLog *slog.Logger
	workloads preparedWorkloads

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   chan struct{} // closed when Shutdown begins
	stopOnce   sync.Once
	stopErr    error
}

// New builds a server from the config (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	obs.RegisterBuildInfo() // the build_info gauge is visible on /metricz
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		wd:         &watchdog{threshold: int64(cfg.DegradedAfter)},
		limBuild:   newLimiter("chip.build", cfg.BuildLimit, cfg.QueueDepth, cfg.AdmissionTimeout, cfg.ShedWatermark),
		limSim:     newLimiter("perfsim.simulate", cfg.SimulateLimit, cfg.QueueDepth, cfg.AdmissionTimeout, cfg.ShedWatermark),
		accessLog:  cfg.AccessLog,
		workloads:  newPreparedWorkloads(),
		baseCtx:    ctx,
		baseCancel: cancel,
		draining:   make(chan struct{}),
	}
	s.jobs = newJobStore(s)
	// Constructed here, not in Serve, so Shutdown never races the Serve
	// goroutine's first instructions.
	s.http = &http.Server{Handler: s.mux}

	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	s.mux.HandleFunc("GET /metricz", s.metricz)
	s.mux.Handle("POST /v1/chip/build", s.handle("chip.build", s.limBuild, s.buildHandler))
	s.mux.Handle("POST /v1/perfsim/simulate", s.handle("perfsim.simulate", s.limSim, s.simulateHandler))
	s.mux.Handle("POST /v1/perfsim/simulate-batch", s.handle("perfsim.simulate_batch", s.limSim, s.simulateBatchHandler))
	s.mux.Handle("POST /v1/dse/study", s.handle("dse.study", nil, s.studySubmit))
	s.mux.Handle("GET /v1/dse/study/{id}", s.handle("dse.study.get", nil, s.studyGet))
	return s
}

// Handler exposes the routed middleware stack (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the server in the documented order: close the listener,
// drain in-flight connections within the ctx deadline, cancel running
// study jobs and wait for them to unwind, then log the final
// metrics snapshot. Idempotent (a SIGTERM/SIGINT double-fire drains once);
// afterwards /readyz reports 503 until the process exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() {
		close(s.draining)
		httpErr := s.http.Shutdown(ctx) // listener close + connection drain
		jobsErr := s.jobs.shutdown(ctx) // cancel studies, wait for them
		s.baseCancel()
		snap := obs.Default().Snapshot()
		slog.Info("serve: final metrics snapshot",
			"requests", snap.Counters["serve.requests_total"],
			"shed", snap.Counters["serve.shed_total"],
			"responses_5xx", snap.Counters["serve.responses_5xx"],
			"jobs_submitted", snap.Counters["serve.jobs_submitted"])
		s.stopErr = httpErr
		if s.stopErr == nil {
			s.stopErr = jobsErr
		}
	})
	return s.stopErr
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// ---- health & metrics -----------------------------------------------------

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// readyzBody is the /readyz wire format.
type readyzBody struct {
	Ready               bool   `json:"ready"`
	Reason              string `json:"reason,omitempty"`
	ConsecutiveFailures int64  `json:"consecutive_failures"`
	RunningJobs         int    `json:"running_jobs"`
}

func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	body := readyzBody{
		Ready:               true,
		ConsecutiveFailures: s.wd.consecutive.Load(),
		RunningJobs:         s.jobs.running(),
	}
	switch {
	case s.isDraining():
		body.Ready, body.Reason = false, "draining"
	case s.wd.isDegraded():
		body.Ready, body.Reason = false, "degraded: consecutive request failures"
	}
	status := http.StatusOK
	if !body.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// metricz serves the registry snapshot: human-readable text by default,
// ?format=json for the structured form, ?format=prom for the Prometheus
// text exposition format a scraper consumes. All three renderings are
// deterministically ordered, so CI can diff consecutive scrapes.
func (s *Server) metricz(w http.ResponseWriter, r *http.Request) {
	obs.UpdateRuntimeMetrics()
	snap := obs.Default().Snapshot()
	switch r.URL.Query().Get("format") {
	case "json":
		writeJSON(w, http.StatusOK, snap)
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(snap.Prometheus())
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, snap.Text())
	}
}

// ---- /v1/chip/build -------------------------------------------------------

// ChipRequest selects a chip: a bundled preset or an inline apicfg JSON
// description (exactly one).
type ChipRequest struct {
	Preset string          `json:"preset,omitempty"`
	Config json.RawMessage `json:"config,omitempty"`
}

func (cr ChipRequest) resolve() (*chip.Chip, error) {
	cfg, err := apicfg.Resolve(cr.Preset, cr.Config)
	if err != nil {
		return nil, err
	}
	return chip.BuildCached(cfg)
}

func (s *Server) buildHandler(r *http.Request) (int, any, error) {
	var req ChipRequest
	if err := decodeBody(r, &req); err != nil {
		return 0, nil, err
	}
	if err := guard.CtxErr(r.Context()); err != nil {
		return 0, nil, err
	}
	c, err := req.resolve()
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, c.JSONReport(), nil
}

// ---- /v1/perfsim/simulate -------------------------------------------------

// preparedWorkloads maps every bundled workload name, aliases included, to
// that model's prepared workload, built on first use and kept for the
// server's life: the simulate routes never rebuild or re-prepare a graph.
// Aliases of one model share one entry, and the map is complete when New
// returns, so an unknown name is never stored and the map needs no lock.
type preparedWorkloads map[string]func() (*perfsim.Prepared, error)

func newPreparedWorkloads() preparedWorkloads {
	m := preparedWorkloads{}
	for _, names := range workloads.Names() {
		prep := sync.OnceValues(func() (*perfsim.Prepared, error) {
			g, err := workloads.ByName(names[0])
			if err != nil {
				return nil, err
			}
			return perfsim.Prepare(g)
		})
		for _, name := range names {
			m[name] = prep
		}
	}
	return m
}

// get returns the prepared workload for name. An unknown name is a 400
// carrying workloads.ByName's message.
func (m preparedWorkloads) get(name string) (*perfsim.Prepared, error) {
	prep, ok := m[name]
	if !ok {
		_, err := workloads.ByName(name)
		return nil, guard.Invalid("%v", err)
	}
	return prep()
}

// SimulateRequest runs one workload at one batch size on a chip.
type SimulateRequest struct {
	ChipRequest
	Workload string           `json:"workload"`
	Batch    int              `json:"batch"`
	Options  *perfsim.Options `json:"options,omitempty"` // nil = all optimizations on
}

// SimulateResponse is the runtime summary (mirrors the cmd/neurometer
// -workload output).
type SimulateResponse struct {
	Chip         string  `json:"chip"`
	Workload     string  `json:"workload"`
	Batch        int     `json:"batch"`
	FPS          float64 `json:"fps"`
	LatencyMS    float64 `json:"latency_ms"`
	AchievedTOPS float64 `json:"achieved_tops"`
	Utilization  float64 `json:"utilization"`
	PowerW       float64 `json:"power_w"`
	TOPSPerWatt  float64 `json:"tops_per_watt"`
	TOPSPerTCO   float64 `json:"tops_per_tco"`
}

// simulateResponse summarizes one simulation of workload on c.
func simulateResponse(c *chip.Chip, workload string, batch int, res *perfsim.Result) *SimulateResponse {
	e := c.Efficiency(res.AchievedTOPS*1e12, res.Activity)
	return &SimulateResponse{
		Chip:         c.Cfg.Name,
		Workload:     workload,
		Batch:        batch,
		FPS:          res.FPS,
		LatencyMS:    res.LatencySec * 1e3,
		AchievedTOPS: res.AchievedTOPS,
		Utilization:  res.Utilization,
		PowerW:       e.PowerW,
		TOPSPerWatt:  e.TOPSPerWatt,
		TOPSPerTCO:   e.TOPSPerTCO,
	}
}

// simulateHandler runs the server's prepared workload on one chip. The
// response needs no per-layer detail, so it takes perfsim's headline path,
// (*Prepared).SimulateInto, whose metrics are bit-identical to SimulateCtx;
// the perfsim.simulate span it opens is the one SimulateCtx would.
func (s *Server) simulateHandler(r *http.Request) (int, any, error) {
	var req SimulateRequest
	if err := decodeBody(r, &req); err != nil {
		return 0, nil, err
	}
	p, err := s.workloads.get(req.Workload)
	if err != nil {
		return 0, nil, err
	}
	c, err := req.resolve()
	if err != nil {
		return 0, nil, err
	}
	opt := perfsim.DefaultOptions()
	if req.Options != nil {
		opt = *req.Options
	}
	batch := req.Batch
	if batch == 0 {
		batch = 1
	}
	ctx, span := obs.Start(r.Context(), "perfsim.simulate")
	span.SetStr("graph", p.Name())
	span.SetInt("batch", int64(batch))
	var res perfsim.Result
	err = p.SimulateInto(ctx, c, batch, opt, &res)
	span.End()
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, simulateResponse(c, p.Name(), batch, &res), nil
}

// ---- /v1/perfsim/simulate-batch -------------------------------------------

// maxBatchConfigs bounds the candidate list of one simulate-batch request.
// The endpoint exists to amortize workload preparation across candidates,
// not to smuggle a whole design-space sweep past the study-job machinery —
// use POST /v1/dse/study for sweeps that need the result store and
// admission as long-running work.
const maxBatchConfigs = 256

// SimulateBatchRequest evaluates one workload at one batch size across many
// candidate chips in a single call. Every candidate runs on the server's
// one prepared copy of the workload ((*perfsim.Prepared).SimulateBatch).
type SimulateBatchRequest struct {
	Workload string           `json:"workload"`
	Batch    int              `json:"batch"`
	Options  *perfsim.Options `json:"options,omitempty"` // nil = all optimizations on
	Configs  []ChipRequest    `json:"configs"`
}

// SimulateBatchEntry is one candidate's outcome: a result, or a failure in
// (kind, error) form — the same taxonomy classes error responses carry. A
// failed candidate never disturbs its neighbors.
type SimulateBatchEntry struct {
	Result *SimulateResponse `json:"result,omitempty"`
	Kind   string            `json:"kind,omitempty"`
	Err    string            `json:"error,omitempty"`
}

// SimulateBatchResponse is the simulate-batch wire format. Results[i]
// corresponds to Configs[i].
type SimulateBatchResponse struct {
	Workload string               `json:"workload"`
	Batch    int                  `json:"batch"`
	Failed   int                  `json:"failed"`
	Results  []SimulateBatchEntry `json:"results"`
}

// simulateBatchHandler runs one workload across many candidate chips.
// Request-level problems (unknown workload, no/too many configs, invalid
// batch) fail the call; per-candidate problems (unresolvable config,
// infeasible chip, non-finite metrics) land in that candidate's entry with
// status 200. Admission, deadline, and body-size limits are the simulate
// endpoint's — one batch call occupies one simulate slot.
func (s *Server) simulateBatchHandler(r *http.Request) (int, any, error) {
	var req SimulateBatchRequest
	if err := decodeBody(r, &req); err != nil {
		return 0, nil, err
	}
	if len(req.Configs) == 0 {
		return 0, nil, guard.Invalid("simulate-batch: no configs")
	}
	if len(req.Configs) > maxBatchConfigs {
		return 0, nil, guard.Invalid("simulate-batch: %d configs exceeds the %d limit",
			len(req.Configs), maxBatchConfigs)
	}
	p, err := s.workloads.get(req.Workload)
	if err != nil {
		return 0, nil, err
	}
	opt := perfsim.DefaultOptions()
	if req.Options != nil {
		opt = *req.Options
	}
	batch := req.Batch
	if batch == 0 {
		batch = 1
	}
	resp := SimulateBatchResponse{
		Workload: p.Name(),
		Batch:    batch,
		Results:  make([]SimulateBatchEntry, len(req.Configs)),
	}
	// Resolve every candidate chip first; a config that does not build is a
	// per-entry failure and its slot stays nil through the batch (perfsim
	// skips nothing — a nil chip fails candidate validation — but the build
	// error recorded here wins).
	chips := make([]*chip.Chip, len(req.Configs))
	for i, cr := range req.Configs {
		c, rerr := cr.resolve()
		if rerr != nil {
			resp.Results[i] = SimulateBatchEntry{Kind: guard.Kind(rerr), Err: rerr.Error()}
			continue
		}
		chips[i] = c
	}
	br, err := p.SimulateBatch(r.Context(), batch, opt, chips)
	if err != nil {
		return 0, nil, err
	}
	defer br.Release()
	for i := range resp.Results {
		if resp.Results[i].Err != "" {
			continue // config never built; keep the build error
		}
		if serr := br.Errs[i]; serr != nil {
			resp.Results[i] = SimulateBatchEntry{Kind: guard.Kind(serr), Err: serr.Error()}
			continue
		}
		resp.Results[i].Result = simulateResponse(chips[i], p.Name(), batch, &br.Results[i])
	}
	for _, en := range resp.Results {
		if en.Err != "" {
			resp.Failed++
		}
	}
	return http.StatusOK, resp, nil
}

// decodeBody reads a bounded JSON request body. Malformed JSON is an
// invalid-config failure (400), not a server error; a body past the
// MaxBytesReader bound (installed by handle) is a 413.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return fmt.Errorf("%w: request body exceeds %d bytes", ErrTooLarge, tooBig.Limit)
		}
		return guard.Invalid("request body: %v", err)
	}
	return nil
}
