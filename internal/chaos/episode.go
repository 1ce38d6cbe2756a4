package chaos

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"neurometer/internal/chaos/invariants"
	"neurometer/internal/dse"
	"neurometer/internal/fleet"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/rstore"
	"neurometer/internal/serve"
)

// Fast-but-realistic fleet knobs for an episode: leases long enough for a
// tiny shard, heartbeats quick enough that kill→suspect→evict plays out
// inside one episode. OpStarve's injected stall must exceed episodeLease.
const (
	episodeLease     = 800 * time.Millisecond
	episodeHeartbeat = 50 * time.Millisecond
	episodeSuspect   = 250 * time.Millisecond
	episodeEvict     = 800 * time.Millisecond
)

// gPlanted is the gauge OpViolate bumps and never drains — the planted
// invariant violation the shrinker proves itself against.
var gPlanted = obs.NewGauge("chaos.planted_violations")

// Verdict is an episode's invariant outcome. It deliberately carries no
// timing, so two runs of the same schedule produce byte-identical
// verdict JSON — which is what lets CI diff them.
type Verdict struct {
	Scenario    string   `json:"scenario"`
	Seed        int64    `json:"seed"`
	Events      int      `json:"events"`
	OutputExact bool     `json:"output_exact"`
	Passed      bool     `json:"passed"`
	Violations  []string `json:"violations,omitempty"`
}

// Runner executes schedules as episodes against an in-process harness. A
// Runner caches the serial study reference across episodes (it never
// changes — same spec, no faults) and owns the HTTP client the harness
// coordinators use, so teardown can drop keepalive connections before the
// goroutine-leak check. Episodes arm process-global guard state, so a
// Runner must not run episodes concurrently.
type Runner struct {
	client *http.Client

	refOnce sync.Once
	refCSV  string
	refErr  error
}

// NewRunner returns a Runner with a dedicated HTTP client.
func NewRunner() *Runner {
	return &Runner{client: &http.Client{}}
}

// episodeSpec is the study every episode evaluates: a few candidates of
// the paper's datacenter space over one workload — small enough for a
// sub-second serial run, large enough to shard across workers.
func episodeSpec() dse.StudySpec {
	c := dse.TableI()
	c.XChoices = []int{8, 32, 64}
	c.NChoices = []int{2, 4}
	c.MaxTiles = 64
	return dse.StudySpec{
		Constraints: c,
		Spec:        dse.BatchSpec{Fixed: 8},
		Models:      []string{"alexnet"},
	}
}

// Reference computes (once) the serial, fault-free study output every
// episode is compared against.
func (r *Runner) Reference(ctx context.Context) (string, error) {
	r.refOnce.Do(func() {
		if guard.Armed() {
			r.refErr = fmt.Errorf("chaos: reference requested with faults armed")
			return
		}
		study, err := dse.NewStudy(ctx, episodeSpec())
		if err != nil {
			r.refErr = err
			return
		}
		rows, err := study.Run(ctx, dse.Hardening{}, "")
		if err != nil {
			r.refErr = err
			return
		}
		r.refCSV = dse.RuntimeRowsCSV(rows)
	})
	return r.refCSV, r.refErr
}

// buildPlan translates a schedule's fault events (and starve ops, which
// are sugar for a one-shot over-lease stall at fleet.shard) into a guard
// plan seeded by the schedule.
func buildPlan(sch *Schedule) guard.Plan {
	p := guard.Plan{Seed: sch.Seed}
	for _, e := range sch.Events {
		switch {
		case e.Kind == KindFault:
			pf := guard.PlanFault{Site: e.Site, Prob: e.Prob}
			pf.Skip, pf.Count = e.Skip, e.Count
			switch e.Effect {
			case EffectErr:
				pf.Err = guard.ErrUnavailable
			case EffectDelay:
				pf.Delay = time.Duration(e.DelayMS) * time.Millisecond
			case EffectPanic:
				pf.Panic = true
			case EffectNaN:
				pf.NaN = true
			}
			p.Faults = append(p.Faults, pf)
		case e.Kind == KindOp && e.Op == OpStarve:
			p.Faults = append(p.Faults, guard.PlanFault{
				Site:  "fleet.shard",
				Fault: guard.Fault{Delay: episodeLease + 200*time.Millisecond, Count: 1, Skip: e.Skip},
			})
		}
	}
	return p
}

// Run executes one episode of the schedule and returns its verdict. A
// non-nil error means the harness itself failed (setup, I/O), not that an
// invariant was violated — violations land in the verdict.
func (r *Runner) Run(ctx context.Context, sch *Schedule) (*Verdict, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	refCSV, err := r.Reference(ctx)
	if err != nil {
		return nil, fmt.Errorf("chaos: serial reference: %w", err)
	}

	gPlanted.Set(0)
	baseline := invariants.GoroutineBaseline()
	before := obs.Default().Snapshot()
	var violations []string

	disarm := guard.ArmPlan(buildPlan(sch))
	csv, vio, err := r.drive(ctx, sch)
	disarm()
	guard.DisarmAll() // belt and braces: nothing may leak into the next episode
	if err != nil {
		return nil, err
	}
	violations = append(violations, vio...)

	// Output invariant: byte-identity against the serial reference, or —
	// when the schedule corrupts a metric to NaN — the relaxed contract
	// (every emitted row identical to a reference row, nothing
	// non-finite).
	if sch.OutputExact() {
		if csv != refCSV {
			violations = append(violations, fmt.Sprintf(
				"output: study CSV diverged from serial reference\n--- reference\n%s--- episode\n%s", refCSV, csv))
		}
	} else {
		violations = append(violations, relaxedOutputViolations(refCSV, csv)...)
	}

	// Quiescence invariants, after full teardown.
	if err := invariants.NoGoroutineLeak(baseline, 4, 5*time.Second); err != nil {
		violations = append(violations, err.Error())
	}
	after := obs.Default().Snapshot()
	if err := invariants.GaugesDrained(after, append(invariants.DrainedGauges(), "chaos.planted_violations")...); err != nil {
		violations = append(violations, err.Error())
	}
	if err := invariants.CountersMonotonic(before, after); err != nil {
		violations = append(violations, err.Error())
	}
	if err := invariants.FiniteGauges(after); err != nil {
		violations = append(violations, err.Error())
	}

	return &Verdict{
		Scenario:    sch.Scenario,
		Seed:        sch.Seed,
		Events:      len(sch.Events),
		OutputExact: sch.OutputExact(),
		Passed:      len(violations) == 0,
		Violations:  violations,
	}, nil
}

// relaxedOutputViolations checks the NaN-episode contract: got's header
// matches, every data row appears verbatim in the reference, and no
// non-finite value is rendered anywhere.
func relaxedOutputViolations(ref, got string) []string {
	var out []string
	refLines := strings.Split(strings.TrimRight(ref, "\n"), "\n")
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	known := map[string]bool{}
	for _, l := range refLines {
		known[l] = true
	}
	if len(gotLines) > 0 && len(refLines) > 0 && gotLines[0] != refLines[0] {
		out = append(out, fmt.Sprintf("output: CSV header diverged: %q vs %q", gotLines[0], refLines[0]))
	}
	for _, l := range gotLines {
		if l == "" {
			continue
		}
		if !known[l] {
			out = append(out, fmt.Sprintf("output: row not byte-identical to any reference row: %q", l))
		}
		if strings.Contains(l, "NaN") || strings.Contains(l, "Inf") {
			out = append(out, fmt.Sprintf("output: non-finite value escaped into CSV: %q", l))
		}
	}
	return out
}

// drive runs the schedule's study phase(s) and returns the episode CSV
// and any harness-observed invariant violations (membership transitions,
// store accounting).
func (r *Runner) drive(ctx context.Context, sch *Schedule) (string, []string, error) {
	if !sch.Store {
		return r.driveStudy(ctx, sch, nil)
	}
	// Two-phase store episode: populate the store with a fault-free-path
	// local run, mutate entries the way crashes and bad disks do, then
	// recover (OpenDisk scan) and replay — the episode output is the
	// replayed run, which must still match the reference because a
	// damaged store degrades to recomputation, never to wrong results.
	dir, err := os.MkdirTemp("", "chaos-store-*")
	if err != nil {
		return "", nil, err
	}
	defer os.RemoveAll(dir)

	ds, err := rstore.OpenDisk(dir)
	if err != nil {
		return "", nil, fmt.Errorf("chaos: store populate open: %w", err)
	}
	study, err := dse.NewStudy(ctx, episodeSpec())
	if err != nil {
		return "", nil, err
	}
	if _, err := study.Run(ctx, dse.Hardening{Results: rstore.NewCache(ds)}, ""); err != nil && sch.OutputExact() {
		return "", nil, fmt.Errorf("chaos: store populate run: %w", err)
	}
	ds.Close()

	for _, e := range sch.opsInOrder() {
		if err := mutateStore(dir, e); err != nil {
			return "", nil, err
		}
	}

	ds2, err := rstore.OpenDisk(dir) // recovery scan: quarantine + tmp cleanup
	if err != nil {
		return "", nil, fmt.Errorf("chaos: store recovery open: %w", err)
	}
	defer ds2.Close()
	csv, vio, err := r.driveStudy(ctx, sch, rstore.NewCache(ds2))
	if err != nil {
		return "", nil, err
	}
	maxEntries, _ := rstore.QuarantineLimits()
	if qerr := invariants.QuarantineAccounting(dir, maxEntries); qerr != nil {
		vio = append(vio, qerr.Error())
	}
	return csv, vio, nil
}

// driveStudy runs one study under the schedule's harness: workers plus
// coordinator when sch.Workers > 0, a timed ops driver, and (when
// heartbeats are on) a membership-transition watcher.
func (r *Runner) driveStudy(ctx context.Context, sch *Schedule, cache *rstore.Cache) (string, []string, error) {
	h := &harness{runner: r, sch: sch}
	defer h.teardown()
	if err := h.start(); err != nil {
		return "", nil, err
	}

	opsCtx, opsCancel := context.WithCancel(ctx)
	defer opsCancel()
	opsDone := make(chan struct{})
	go func() {
		defer close(opsDone)
		start := time.Now()
		for _, e := range sch.opsInOrder() {
			if wait := time.Duration(e.AtMS)*time.Millisecond - time.Since(start); wait > 0 {
				select {
				case <-time.After(wait):
				case <-opsCtx.Done():
					return
				}
			}
			h.execOp(opsCtx, e)
		}
	}()

	hard := dse.Hardening{Workers: 2, BlockSize: 2, Results: cache}
	if h.coord != nil {
		hard.Dispatch = h.coord.Dispatch
	}
	study, err := dse.NewStudy(ctx, episodeSpec())
	if err != nil {
		return "", nil, err
	}
	rows, err := study.Run(ctx, hard, "")
	if err != nil && sch.OutputExact() {
		return "", nil, fmt.Errorf("chaos: episode study: %w", err)
	}
	<-opsDone
	h.teardown()
	return dse.RuntimeRowsCSV(rows), h.violations(), nil
}

// harness is one episode's in-process fleet: workers behind real
// listeners, a coordinator, the coordinator's HTTP surface (register/
// drain endpoints), and the membership watcher.
type harness struct {
	runner *Runner
	sch    *Schedule

	mu      sync.Mutex
	workers []*episodeWorker
	vio     []string

	coord     *fleet.Coordinator
	coordSrv  *serve.Server
	coordHTTP *http.Server
	coordURL  string

	watchStop chan struct{}
	watchDone chan struct{}
	torn      bool
}

// episodeWorker is one worker process analog: a serve.Server behind a
// caller-owned http.Server, so OpKill can abruptly sever its listener and
// connections the way SIGKILL would.
type episodeWorker struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	killed bool
}

func (h *harness) start() error {
	if h.sch.Workers == 0 {
		return nil
	}
	urls := make([]string, 0, h.sch.Workers)
	for i := 0; i < h.sch.Workers; i++ {
		w, err := h.startWorker()
		if err != nil {
			return err
		}
		urls = append(urls, w.url)
	}
	cfg := fleet.Config{
		Workers:          urls,
		ShardSize:        2,
		LeaseTTL:         episodeLease,
		HedgeAfter:       -1,
		MaxAttempts:      3,
		Backoff:          guard.Backoff{Base: 5 * time.Millisecond, Max: 40 * time.Millisecond},
		BreakerThreshold: 3,
		BreakerCooldown:  200 * time.Millisecond,
		Client:           h.runner.client,
	}
	if h.sch.Heartbeat {
		cfg.Heartbeat = episodeHeartbeat
		cfg.SuspectAfter = episodeSuspect
		cfg.EvictAfter = episodeEvict
	}
	coord, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	h.coord = coord

	// The coordinator's own HTTP surface, so spawn/drain ops go through
	// the real /v1/worker/register and /v1/worker/drain endpoints (and
	// their fleet.register fault site), not through a back door.
	h.coordSrv = serve.New(serve.Config{Membership: coord.Membership()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.coordHTTP = &http.Server{Handler: h.coordSrv.Handler()}
	go h.coordHTTP.Serve(ln)
	h.coordURL = "http://" + ln.Addr().String()

	if h.sch.Heartbeat {
		h.watchStop = make(chan struct{})
		h.watchDone = make(chan struct{})
		go h.watchMembership(coord.Membership())
	}
	return nil
}

func (h *harness) startWorker() (*episodeWorker, error) {
	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &episodeWorker{
		srv: srv,
		hs:  &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(),
	}
	go w.hs.Serve(ln)
	h.mu.Lock()
	h.workers = append(h.workers, w)
	h.mu.Unlock()
	return w, nil
}

// execOp applies one timed op. Store ops are handled between phases by
// drive, not here.
func (h *harness) execOp(ctx context.Context, e Event) {
	switch e.Op {
	case OpKill:
		h.mu.Lock()
		defer h.mu.Unlock()
		if len(h.workers) == 0 {
			return
		}
		w := h.workers[e.Worker%len(h.workers)]
		if !w.killed {
			w.killed = true
			w.hs.Close()
		}
	case OpSpawn:
		if h.coordURL == "" {
			return
		}
		w, err := h.startWorker()
		if err != nil {
			return
		}
		h.memberPost(ctx, "/v1/worker/register", w.url)
	case OpDrain:
		h.mu.Lock()
		var url string
		if len(h.workers) > 0 {
			url = h.workers[e.Worker%len(h.workers)].url
		}
		h.mu.Unlock()
		if url != "" && h.coordURL != "" {
			h.memberPost(ctx, "/v1/worker/drain", url)
		}
	case OpViolate:
		gPlanted.Add(1)
	}
}

// memberPost drives the coordinator's register/drain endpoint. Failures
// are deliberately ignored: an injected fleet.register fault *should*
// fail this call, and the invariant story is that the system stays
// correct regardless.
func (h *harness) memberPost(ctx context.Context, path, workerURL string) {
	body := strings.NewReader(`{"url":` + strconv.Quote(workerURL) + `}`)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.coordURL+path, body)
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.runner.client.Do(req)
	if err == nil {
		resp.Body.Close()
	}
}

// watchMembership samples the membership table and checks every directly
// observed transition against the state machine's legal edges. Sampling
// can miss intermediate states, so a check only counts when consecutive
// samples are close enough (well under SuspectAfter) that a composed
// multi-hop path cannot masquerade as one illegal edge.
func (h *harness) watchMembership(m *fleet.Membership) {
	defer close(h.watchDone)
	const every = 15 * time.Millisecond
	const maxGap = 150 * time.Millisecond
	last := m.States()
	lastAt := time.Now()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-h.watchStop:
			return
		case <-t.C:
			cur := m.States()
			now := time.Now()
			if now.Sub(lastAt) <= maxGap {
				for url, st := range cur {
					prev, ok := last[url]
					if ok && !legalTransition(prev, st) {
						h.mu.Lock()
						h.vio = append(h.vio, fmt.Sprintf(
							"membership: illegal transition %s -> %s for %s", prev, st, url))
						h.mu.Unlock()
					}
				}
			}
			last, lastAt = cur, now
		}
	}
}

// legalTransition reports whether a directly observed membership edge
// from -> to is reachable in the state machine
// (internal/fleet/membership.go): any state may drain (operator action)
// or readmit to live (probe success / re-register); only a live member
// becomes suspect; any non-evicted state may age straight to evicted
// (probeResult evicts on EvictAfter silence even if no round observed the
// suspect window).
func legalTransition(from, to fleet.State) bool {
	if from == to {
		return true
	}
	switch to {
	case fleet.StateDraining, fleet.StateLive:
		return true
	case fleet.StateSuspect:
		return from == fleet.StateLive
	case fleet.StateEvicted:
		return from != fleet.StateEvicted
	default:
		return false
	}
}

// violations snapshots the harness-observed invariant violations.
func (h *harness) violations() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.vio...)
}

// teardown stops the watcher, the coordinator, the coordinator's HTTP
// surface, and every worker (killed ones included — process death would
// have reclaimed their resources; in-process, Shutdown does). Idempotent.
func (h *harness) teardown() {
	h.mu.Lock()
	if h.torn {
		h.mu.Unlock()
		return
	}
	h.torn = true
	workers := append([]*episodeWorker(nil), h.workers...)
	h.mu.Unlock()

	if h.watchStop != nil {
		close(h.watchStop)
		<-h.watchDone
	}
	if h.coord != nil {
		h.coord.Close()
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if h.coordHTTP != nil {
		h.coordHTTP.Close()
	}
	if h.coordSrv != nil {
		h.coordSrv.Shutdown(sctx)
	}
	for _, w := range workers {
		w.hs.Close()
		w.srv.Shutdown(sctx)
	}
	h.runner.client.CloseIdleConnections()
}

// mutateStore applies one store op to the store directory between the
// populate and replay phases. Entry indices address the sorted entry
// list, so the same schedule always damages the same entry.
func mutateStore(dir string, e Event) error {
	switch e.Op {
	case OpCorruptEntry, OpTruncateEntry:
		entries, err := listEntries(dir)
		if err != nil || len(entries) == 0 {
			return err
		}
		path := entries[e.Worker%len(entries)]
		if e.Op == OpTruncateEntry {
			info, err := os.Stat(path)
			if err != nil {
				return nil // already gone (mutated twice)
			}
			return os.Truncate(path, info.Size()/2)
		}
		b, err := os.ReadFile(path)
		if err != nil || len(b) == 0 {
			return nil
		}
		b[len(b)/2] ^= 0xFF
		return os.WriteFile(path, b, 0o644)
	case OpPlantTmp:
		sub := filepath.Join(dir, "objects", "00")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		name := strings.Repeat("0", 64) + ".res.tmp"
		return os.WriteFile(filepath.Join(sub, name), []byte("torn write"), 0o644)
	}
	return nil
}

// listEntries returns the store's entry files in sorted order.
func listEntries(dir string) ([]string, error) {
	var out []string
	objects := filepath.Join(dir, "objects")
	err := filepath.WalkDir(objects, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".res" {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
