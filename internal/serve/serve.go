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
)

// Config sizes the server's robustness envelope. The zero value of any
// field falls back to the DefaultConfig value.
type Config struct {
	// BuildLimit / SimulateLimit / StudyLimit bound concurrent executions
	// per endpoint.
	BuildLimit    int
	SimulateLimit int
	StudyLimit    int
	// QueueDepth bounds how many admitted requests may wait for a slot per
	// endpoint; beyond it requests shed immediately (0 falls back to the
	// default; negative leaves no waiting room).
	QueueDepth int
	// AdmissionTimeout bounds how long a queued request waits for a slot.
	AdmissionTimeout time.Duration
	// Workers is the dse evaluation pool size for studies.
	Workers int
	// Results, when non-nil, is the persistent content-addressed result
	// store studies read through (dse.Hardening.Results), so a study
	// whose candidates were already evaluated serves them from disk. nil
	// disables result caching; store faults degrade to evaluation and
	// never fail a request.
	Results *rstore.Cache
	// AccessLog, when non-nil, receives one structured line per request on
	// the model endpoints (request id, route, status, disposition, latency,
	// slow flag). nil disables access logging.
	AccessLog *slog.Logger
}

// The fixed part of the robustness envelope.
const (
	// requestTimeout is every request's deadline; ?timeout_ms= tightens it.
	requestTimeout = 30 * time.Second
	// degradedAfter consecutive 5xx responses trip /readyz degraded.
	degradedAfter = 5
	// maxBodyBytes bounds request bodies; an overflowing body is rejected
	// with 413 and kind=too-large.
	maxBodyBytes = 1 << 20
	// retryAfterJitter widens the Retry-After hint on 429 responses by a
	// uniform 0..retryAfterJitter seconds, de-synchronizing shed clients
	// that would otherwise all retry on the same tick.
	retryAfterJitter = 3
	// slowRequest is the latency at or above which an access-log line is
	// flagged slow=true.
	slowRequest = time.Second
)

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		BuildLimit:       8,
		SimulateLimit:    4,
		StudyLimit:       1,
		QueueDepth:       16,
		AdmissionTimeout: time.Second,
		Workers:          dse.DefaultWorkers,
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
	if c.QueueDepth == 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.AdmissionTimeout == 0 {
		c.AdmissionTimeout = d.AdmissionTimeout
	}
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	return c
}

// Server is the neurometerd HTTP service. Create with New, mount Handler
// (or Serve), and Shutdown to drain.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	http *http.Server
	wd   *watchdog

	limBuild  *limiter
	limSim    *limiter
	limStudy  *limiter
	accessLog *slog.Logger
	workloads workloadMemo
	chips     chipMemo

	draining chan struct{} // closed when Shutdown begins
	stopOnce sync.Once
	stopErr  error
}

// New builds a server from the config (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		wd:        &watchdog{},
		limBuild:  newLimiter("chip.build", cfg.BuildLimit, cfg.QueueDepth, cfg.AdmissionTimeout),
		limSim:    newLimiter("perfsim.simulate", cfg.SimulateLimit, cfg.QueueDepth, cfg.AdmissionTimeout),
		limStudy:  newLimiter("dse.study", cfg.StudyLimit, cfg.QueueDepth, cfg.AdmissionTimeout),
		accessLog: cfg.AccessLog,
		workloads: workloadMemo(dse.BundledWorkloads()),
		chips:     chipMemo{chips: map[string]*chip.Chip{}},
		draining:  make(chan struct{}),
	}
	// Constructed here, not in Serve, so Shutdown never races the Serve
	// goroutine's first instructions.
	s.http = &http.Server{Handler: s.mux}

	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	s.mux.HandleFunc("GET /metricz", s.metricz)
	s.mux.Handle("POST /v1/chip/build", s.handle("chip.build", s.limBuild, s.buildHandler))
	s.mux.Handle("POST /v1/perfsim/simulate", s.handle("perfsim.simulate", s.limSim, s.simulateHandler))
	s.mux.Handle("POST /v1/perfsim/simulate-batch", s.handle("perfsim.simulate_batch", s.limSim, s.simulateBatchHandler))
	// The study handler takes its dse.study slot itself, after it has
	// checked the body.
	s.mux.Handle("POST /v1/dse/study", s.handle("dse.study", nil, s.studyHandler))
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
// let in-flight requests (studies included) finish within the ctx
// deadline, then log the final metrics snapshot. Idempotent (a
// SIGTERM/SIGINT double-fire drains once); afterwards /readyz reports 503
// until the process exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() {
		close(s.draining)
		s.stopErr = s.http.Shutdown(ctx) // listener close + connection drain
		snap := obs.Default().Snapshot()
		slog.Info("serve: final metrics snapshot",
			"requests", snap.Counters["serve.requests_total"],
			"shed", snap.Counters["serve.shed_total"],
			"responses_5xx", snap.Counters["serve.responses_5xx"])
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
}

func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	body := readyzBody{
		Ready:               true,
		ConsecutiveFailures: s.wd.consecutive.Load(),
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

// metricz serves the registry snapshot: human-readable text by default (or
// ?format=text), ?format=json for the structured form. Any other format is
// a 400 naming the two, so a scraper asking for one that does not exist
// learns why instead of parsing text. Both renderings are
// deterministically ordered, so CI can diff consecutive scrapes.
func (s *Server) metricz(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "json":
		writeJSON(w, http.StatusOK, obs.Default().Snapshot())
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, obs.Default().Snapshot().Text())
	default:
		err := guard.Invalid("metricz: unknown format %q (want text or json)", format)
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error(), Kind: errKind(err)})
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

// chipMemo maps the exact bytes of an inline ChipRequest.Config to the chip
// apicfg.Resolve and chip.BuildCached made from them, so a config posted
// again skips the JSON parse and the fingerprint. apicfg.Parse is a pure
// function of those bytes and a Chip is immutable after Build, so a hit
// returns the chip a miss would. Only built chips are stored: presets,
// parse errors and build errors always take the unmemoized path, which
// keeps their statuses and messages. Configs that differ only in
// whitespace or key order are separate entries holding one chip.
//
// The memo holds at most chipMemoEntries entries and chipMemoKeyBytes key
// bytes: a body may carry a config of up to maxBodyBytes, so an entry
// count alone does not bound its memory. An insert that would pass
// either bound empties it first, as chip.BuildCached does, and a key larger
// than the whole byte bound is never stored.
type chipMemo struct {
	mu       sync.Mutex
	chips    map[string]*chip.Chip
	keyBytes int
}

const (
	chipMemoEntries  = 1024
	chipMemoKeyBytes = 1 << 20
)

var (
	mConfigMemoHits   = obs.NewCounter("serve.config_memo_hits")
	mConfigMemoMisses = obs.NewCounter("serve.config_memo_misses")
)

// resolve returns cr's chip, through the memo for an inline config. While
// any guard fault is armed the memo is neither read nor written, so
// injected faults reach chip.build as they do through BuildCached.
func (m *chipMemo) resolve(cr ChipRequest) (*chip.Chip, error) {
	if cr.Preset != "" || len(cr.Config) == 0 || guard.Armed() {
		return cr.resolve()
	}
	m.mu.Lock()
	c, ok := m.chips[string(cr.Config)]
	m.mu.Unlock()
	if ok {
		mConfigMemoHits.Inc()
		return c, nil
	}
	mConfigMemoMisses.Inc()
	c, err := cr.resolve()
	// A fault armed since the check above may have reached this build.
	if err != nil || len(cr.Config) > chipMemoKeyBytes || guard.Armed() {
		return c, err
	}
	m.mu.Lock()
	if _, ok := m.chips[string(cr.Config)]; !ok {
		if len(m.chips) >= chipMemoEntries || m.keyBytes+len(cr.Config) > chipMemoKeyBytes {
			clear(m.chips)
			m.keyBytes = 0
		}
		m.chips[string(cr.Config)] = c
		m.keyBytes += len(cr.Config)
	}
	m.mu.Unlock()
	return c, nil
}

func (s *Server) buildHandler(r *http.Request) (int, any, error) {
	var req ChipRequest
	if err := decodeBody(r, &req); err != nil {
		return 0, nil, err
	}
	if err := guard.CtxErr(r.Context()); err != nil {
		return 0, nil, err
	}
	c, err := s.chips.resolve(req)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, c.JSONReport(), nil
}

// ---- /v1/perfsim/simulate -------------------------------------------------

// workloadMemo is dse's one memo of prepared bundled workloads, which the
// simulate routes share with every study the process runs: a simulate
// request never rebuilds or re-prepares a graph.
type workloadMemo dse.PreparedWorkloads

// get returns the prepared workload for name. An unknown name is a 400
// carrying workloads.ByName's message.
func (m workloadMemo) get(name string) (*perfsim.Prepared, error) {
	return dse.PreparedWorkloads(m).Get(name)
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

// bindingPool recycles the simulate route's perfsim.Bindings, so a call
// reuses a Binding's tiling-terms slice instead of allocating one; a
// Binding refills itself for another (workload, chip) pair.
var bindingPool = sync.Pool{New: func() any { return new(perfsim.Binding) }}

// simulateHandler runs the server's prepared workload on one chip. The
// response needs no per-layer detail, so it takes perfsim's headline path,
// (*Binding).SimulateInto on a pooled Binding, whose metrics are
// bit-identical to SimulateCtx; the perfsim.simulate span it opens is the
// one SimulateCtx would.
func (s *Server) simulateHandler(r *http.Request) (int, any, error) {
	var req SimulateRequest
	if err := decodeBody(r, &req); err != nil {
		return 0, nil, err
	}
	p, err := s.workloads.get(req.Workload)
	if err != nil {
		return 0, nil, err
	}
	c, err := s.chips.resolve(req.ChipRequest)
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
	b := bindingPool.Get().(*perfsim.Binding)
	var res perfsim.Result
	err = b.SimulateInto(ctx, p, c, batch, opt, &res)
	bindingPool.Put(b)
	span.End()
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, simulateResponse(c, p.Name(), batch, &res), nil
}

// ---- /v1/perfsim/simulate-batch -------------------------------------------

// maxBatchConfigs bounds the candidate list of one simulate-batch request.
// The endpoint exists to amortize workload preparation across candidates,
// not to run a whole design-space sweep on a simulate slot — use
// POST /v1/dse/study for sweeps, which enumerates, prunes and reads
// through the result store under the dse.study limiter.
const maxBatchConfigs = 256

// SimulateBatchRequest evaluates one workload at one batch size across many
// candidate chips in a single call. Every candidate runs on the server's
// one prepared copy of the workload.
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
// Request-level problems (unknown workload, no/too many configs,
// negative batch, canceled or expired request) fail the call;
// per-candidate problems (unresolvable config, chip without tensor units,
// injected fault, non-finite metrics, panic) land in that candidate's entry
// with status 200. Admission, deadline, and body-size limits are the
// simulate endpoint's — one batch call occupies one simulate slot.
//
// The candidates simulate in turn on one pooled Binding into one Result,
// each summarized into its entry at once, under one perfsim.simulate_batch
// span opened once every config is resolved. The ctx is checked before
// each candidate, and by each simulation before its closed forms run.
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
	if batch < 0 {
		return 0, nil, guard.Invalid("perfsim: batch must be positive, got %d", batch)
	}
	resp := SimulateBatchResponse{
		Workload: p.Name(),
		Batch:    batch,
		Results:  make([]SimulateBatchEntry, len(req.Configs)),
	}
	fail := func(i int, err error) {
		resp.Results[i] = SimulateBatchEntry{Kind: guard.Kind(err), Err: err.Error()}
		resp.Failed++
	}
	// Resolve every candidate chip first; a config that does not build is
	// a per-entry failure and is not simulated.
	chips := make([]*chip.Chip, len(req.Configs))
	for i, cr := range req.Configs {
		c, err := s.chips.resolve(cr)
		if err != nil {
			fail(i, err)
			continue
		}
		chips[i] = c
	}
	ctx, span := obs.Start(r.Context(), "perfsim.simulate_batch")
	defer span.End()
	span.SetStr("graph", p.Name())
	span.SetInt("batch", int64(batch))
	span.SetInt("candidates", int64(len(chips)))
	b := bindingPool.Get().(*perfsim.Binding)
	defer bindingPool.Put(b)
	var res perfsim.Result
	for i, c := range chips {
		if err := guard.CtxErr(ctx); err != nil {
			return 0, nil, err
		}
		if c == nil {
			continue // its config never built; the entry holds the build error
		}
		if err := b.SimulateInto(ctx, p, c, batch, opt, &res); err != nil {
			fail(i, err)
			continue
		}
		resp.Results[i].Result = simulateResponse(c, p.Name(), batch, &res)
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
