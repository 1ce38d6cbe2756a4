// Package fleet distributes a DSE runtime study across worker processes.
//
// The coordinator side plugs into dse.Hardening.Dispatch: it splits the
// pending candidates into shards, posts each shard to a worker's
// /v1/worker/eval endpoint, and reports the outcomes back into the study.
// The worker side is dse.EvalShard behind an HTTP handler (internal/serve).
//
// Robustness envelope, per shard:
//
//   - Lease: every attempt runs under a LeaseTTL deadline. A worker that
//     stalls or dies mid-shard forfeits its lease and the shard is requeued
//     (fleet.lease_expired_total).
//   - Retry: transient failures (guard.Retryable — unavailability and
//     timeouts) retry on another worker under exponential backoff with full
//     jitter (guard.Backoff, fleet.retries_total), up to MaxAttempts.
//   - Breaker: BreakerThreshold consecutive worker-attributable failures
//     make a worker suspect; it receives nothing until BreakerCooldown has
//     passed, then a single probe shard decides (membership.go).
//   - Hedge: if a shard's first attempt has not resolved after HedgeAfter,
//     a second attempt launches on a different worker; the first result
//     wins and the loser is canceled (fleet.hedges_total).
//   - Degradation: a shard that exhausts its attempts — or finds no
//     dispatchable worker — is simply not reported; RuntimeStudyHardened
//     evaluates those candidates in-process. Losing the whole fleet slows a
//     study down, it never fails or changes it.
//
// Membership (membership.go, probe.go): the worker set is a dynamic table,
// not a fixed slice, with one health state per worker. Config.Workers
// seeds it; workers join and leave at runtime through Membership.Register
// / Membership.Drain (the serve /v1/worker/register and /v1/worker/drain
// endpoints). Shard outcomes and a heartbeat loop that probes every
// member's /readyz both feed the state, aging unresponsive workers through
// live → suspect → evicted and readmitting recovered ones, so the fleet
// heals itself while a study is running.
//
// Determinism: workers run the same deterministic simulator on the same
// exactly-serialized configs, the coordinator merges outcomes by candidate
// index, and duplicate reports (hedging) are idempotent — so tables, CSV,
// and checkpoint files are byte-identical to a serial in-process run at any
// fleet size, any failure schedule, and any membership churn schedule. That
// property is what makes every retry safe: re-evaluating a candidate cannot
// change the answer.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"neurometer/internal/dse"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

var (
	gShardsInflight = obs.NewGauge("fleet.shards_inflight")
	mShards         = obs.NewCounter("fleet.shards_total")
	mRetries        = obs.NewCounter("fleet.retries_total")
	mHedges         = obs.NewCounter("fleet.hedges_total")
	mLeaseExpired   = obs.NewCounter("fleet.lease_expired_total")
	mAbandoned      = obs.NewCounter("fleet.shards_abandoned_total")
)

// Defaults for the zero-valued Config knobs. Exported so the CLIs can show
// (and fail-fast validate against) the real values instead of a 0 sentinel.
const (
	DefaultShardSize   = 4
	DefaultLeaseTTL    = 2 * time.Minute
	DefaultHedgeAfter  = 15 * time.Second
	DefaultMaxAttempts = 4

	defaultBreakerThreshold = 3
	defaultBreakerCooldown  = 10 * time.Second

	// maxResponseBytes bounds how much of a worker response the
	// coordinator will read — a confused worker cannot OOM the study.
	maxResponseBytes = 64 << 20
)

// Config parameterizes a Coordinator. The zero value of every knob resolves
// to a sensible default.
type Config struct {
	// Workers are the base URLs of neurometerd worker processes, e.g.
	// "http://10.0.0.7:8080". They seed the membership table, which may
	// start empty: workers also join at runtime via Membership.Register.
	Workers []string
	// ShardSize is the number of candidates per shard. Smaller shards
	// spread better and lose less work per worker death; larger shards
	// amortize HTTP overhead.
	ShardSize int
	// LeaseTTL bounds one shard attempt on one worker. An attempt that
	// overruns is canceled and the shard requeued elsewhere.
	LeaseTTL time.Duration
	// HedgeAfter launches a second attempt on a different worker if the
	// first has not resolved in time; first result wins. <0 disables
	// hedging.
	HedgeAfter time.Duration
	// MaxAttempts bounds how many times one shard is tried (hedges do not
	// count) before its candidates fall back to local evaluation.
	MaxAttempts int
	// Backoff paces retries (full jitter; see guard.Backoff).
	Backoff guard.Backoff
	// BreakerThreshold consecutive retryable failures make a live worker
	// suspect; BreakerCooldown later it gets one probe shard.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Heartbeat enables the membership probe loop: every Heartbeat the
	// coordinator GETs each member's /readyz under a Heartbeat-long
	// deadline. 0 (the zero value) disables probing — membership then
	// changes only through registration, drain, and shard outcomes.
	Heartbeat time.Duration
	// SuspectAfter marks a member suspect after this long without a
	// successful probe or eval (0 = DefaultSuspectAfter); EvictAfter
	// evicts it (0 = DefaultEvictAfter). EvictAfter must exceed
	// SuspectAfter.
	SuspectAfter time.Duration
	EvictAfter   time.Duration
	// Client is the HTTP client used for worker calls. Defaults to a
	// dedicated client with no overall timeout: attempts are bounded by
	// the lease context, not the transport.
	Client *http.Client
}

// ValidateFlags fail-fast checks the CLI fleet knobs the way a Coordinator
// would eventually trip over them, so a bad flag is an exit-2 at startup
// instead of a misbehaving study at first dispatch: the lease must be
// positive, the hedge delay must be shorter than the lease (negative
// disables hedging), and at least one attempt must be allowed.
func ValidateFlags(lease, hedge time.Duration, attempts int) error {
	if lease <= 0 {
		return guard.Invalid("fleet: -fleet-lease must be positive (got %v)", lease)
	}
	if hedge >= lease {
		return guard.Invalid("fleet: -fleet-hedge-after (%v) must be shorter than -fleet-lease (%v); negative disables hedging", hedge, lease)
	}
	if attempts < 1 {
		return guard.Invalid("fleet: -fleet-max-attempts must be at least 1 (got %d)", attempts)
	}
	return nil
}

// Coordinator shards studies across a worker fleet. Safe for concurrent
// use; one Coordinator can serve many studies. Close releases the probe
// loop (a Coordinator with Heartbeat disabled has nothing to release, but
// Close is always safe to call).
type Coordinator struct {
	cfg    Config
	m      *Membership
	client *http.Client

	closeOnce   sync.Once
	probeCancel context.CancelFunc
	probeDone   chan struct{}
}

// New validates cfg, applies defaults, seeds the membership table, and
// builds a Coordinator. With Heartbeat > 0 the membership probe loop starts
// immediately; call Close to stop it.
func New(cfg Config) (*Coordinator, error) {
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = DefaultShardSize
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = DefaultHedgeAfter
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = defaultBreakerThreshold
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = defaultBreakerCooldown
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	if cfg.EvictAfter <= 0 {
		cfg.EvictAfter = DefaultEvictAfter
	}
	if cfg.EvictAfter <= cfg.SuspectAfter {
		return nil, guard.Invalid("fleet: EvictAfter (%v) must exceed SuspectAfter (%v)",
			cfg.EvictAfter, cfg.SuspectAfter)
	}
	m, err := newMembership(cfg, time.Now())
	if err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, client: cfg.Client, m: m}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if cfg.Heartbeat > 0 {
		pctx, cancel := context.WithCancel(context.Background())
		c.probeCancel = cancel
		c.probeDone = make(chan struct{})
		go c.probeLoop(pctx)
	}
	return c, nil
}

// Close stops the membership probe loop (if running) and waits for it to
// unwind. Idempotent and nil-safe on a Coordinator without heartbeats.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		if c.probeCancel != nil {
			c.probeCancel()
			<-c.probeDone
		}
	})
}

// metricName flattens a worker URL into a metric-name-safe suffix.
func metricName(url string) string {
	if i := strings.Index(url, "://"); i >= 0 {
		url = url[i+3:]
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		}
		return '_'
	}, url)
}

// Workers returns every known member's normalized base URL (any state),
// in join order — the order round-robin dispatch uses.
func (c *Coordinator) Workers() []string { return c.m.urls() }

// Membership exposes the coordinator's worker table — the serve layer
// mounts its register/drain endpoints and /readyz summary on it.
func (c *Coordinator) Membership() *Membership { return c.m }

// Dispatch implements dse.Hardening.Dispatch: shard the pending candidates,
// evaluate the shards across the fleet under the robustness envelope, and
// report resolved outcomes. Returns when every shard has either resolved or
// been abandoned to local evaluation; report may be called from multiple
// goroutines (the dse merge is mutex-protected and idempotent).
func (c *Coordinator) Dispatch(ctx context.Context, sh dse.Shard, report func(dse.ShardOutcome)) {
	ctx, span := obs.Start(ctx, "fleet.dispatch")
	defer span.End()
	span.SetInt("candidates", int64(len(sh.Cands)))
	span.SetInt("workers", int64(c.m.size()))

	shards := splitShard(sh, c.cfg.ShardSize)
	span.SetInt("shards", int64(len(shards)))

	// Bound concurrency to a small multiple of the table size: enough to
	// keep every worker busy plus hedges, without thousands of goroutines
	// contending for leases on a huge study. Sized off the full table (not
	// just the live members) so workers joining mid-study find slots
	// waiting for them.
	width := 2 * c.m.size()
	if width < 2 {
		width = 2
	}
	sem := make(chan struct{}, width)
	var wg sync.WaitGroup
	for _, sub := range shards {
		wg.Add(1)
		go func(sub dse.Shard) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c.runShard(ctx, sub, report)
		}(sub)
	}
	wg.Wait()
}

// splitShard cuts a shard into sub-shards of at most size candidates.
func splitShard(sh dse.Shard, size int) []dse.Shard {
	var out []dse.Shard
	for lo := 0; lo < len(sh.Cands); lo += size {
		hi := lo + size
		if hi > len(sh.Cands) {
			hi = len(sh.Cands)
		}
		sub := sh
		sub.Cands = sh.Cands[lo:hi]
		out = append(out, sub)
	}
	return out
}

// runShard drives one shard to resolution or abandonment: retry loop with
// backoff around hedged attempts.
func (c *Coordinator) runShard(ctx context.Context, sub dse.Shard, report func(dse.ShardOutcome)) {
	mShards.Inc()
	gShardsInflight.Add(1)
	defer gShardsInflight.Add(-1)
	ctx, span := obs.Start(ctx, "fleet.shard", obs.Int("candidates", int64(len(sub.Cands))))
	defer span.End()

	var avoid *member // worker that failed the previous attempt
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if guard.CtxErr(ctx) != nil {
			return
		}
		if attempt > 0 {
			mRetries.Inc()
			obs.Event(ctx, "fleet.retry", obs.Int("attempt", int64(attempt+1)))
			if err := c.cfg.Backoff.Sleep(ctx, attempt-1); err != nil {
				return
			}
		}
		res, worker, err := c.attempt(ctx, sub, avoid)
		if err == nil {
			for _, o := range res.Outcomes {
				report(o)
			}
			return
		}
		avoid = worker
		if !guard.Retryable(err) {
			// Canceled ctx, or a permanent rejection (the worker called
			// the shard malformed) — retrying cannot help. Unreported
			// candidates fall back to local evaluation.
			if guard.CtxErr(ctx) == nil {
				mAbandoned.Inc()
				obs.Event(ctx, "fleet.abandoned", obs.String("kind", guard.Kind(err)))
				slog.WarnContext(ctx, "fleet: shard failed permanently, falling back to local evaluation",
					"candidates", len(sub.Cands), "kind", guard.Kind(err), "err", err)
			}
			return
		}
		slog.WarnContext(ctx, "fleet: shard attempt failed, will retry",
			"attempt", attempt+1, "max_attempts", c.cfg.MaxAttempts,
			"candidates", len(sub.Cands), "kind", guard.Kind(err), "err", err)
	}
	mAbandoned.Inc()
	obs.Event(ctx, "fleet.abandoned", obs.String("kind", "attempts-exhausted"))
	slog.WarnContext(ctx, "fleet: shard exhausted its attempts, falling back to local evaluation",
		"candidates", len(sub.Cands), "attempts", c.cfg.MaxAttempts)
}

// attempt runs one (possibly hedged) shard attempt. It returns the result,
// or the worker to avoid next time and the classified error.
func (c *Coordinator) attempt(ctx context.Context, sub dse.Shard, avoid *member) (*dse.ShardResult, *member, error) {
	primary, probe := c.m.pick(avoid, nil, time.Now())
	if primary == nil {
		// No member admits a shard right now: none is live, no suspect's
		// probe is due, or the whole table is draining/evicted. Retryable
		// — a cooldown may elapse, a probe may readmit, a worker may join.
		return nil, avoid, guard.Unavailable("fleet: no workers available (members suspect, drained or evicted)")
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel() // first-result-wins: cancels the losing attempt

	type result struct {
		res    *dse.ShardResult
		err    error
		worker *member
	}
	ch := make(chan result, 2)
	// Each attempt reports its own outcome to the member's health before
	// the result is read, so a loser that is never read still answers.
	// Only worker-attributable transient failures seen before the attempt
	// is decided count against the worker — a shard the worker rejected
	// as malformed, or a loser canceled by first-result-wins, says nothing
	// about its health.
	launch := func(w *member, probe bool) {
		go func() {
			res, err := c.evalOn(actx, w, sub)
			c.m.traffic(ctx, w, probe, err, guard.Retryable(err) && actx.Err() == nil, time.Now())
			ch <- result{res, err, w}
		}()
	}
	launch(primary, probe)
	inflight := 1

	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 && c.m.size() > 1 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	var firstErr error
	firstWorker := primary
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				return r.res, r.worker, nil
			}
			if firstErr == nil {
				firstErr, firstWorker = r.err, r.worker
			}
			if inflight == 0 {
				return nil, firstWorker, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			if w, probe := c.m.pick(avoid, primary, time.Now()); w != nil {
				mHedges.Inc()
				obs.Event(ctx, "fleet.hedge",
					obs.String("primary", primary.url), obs.String("hedge", w.url))
				slog.DebugContext(ctx, "fleet: hedging slow shard",
					"primary", primary.url, "hedge", w.url)
				launch(w, probe)
				inflight++
			}
		case <-ctx.Done():
			// Let in-flight attempts unwind via actx; their sends land in
			// the buffered channel.
			return nil, firstWorker, guard.CtxErr(ctx)
		}
	}
}

// evalOn posts the shard to one worker under a fresh lease and decodes the
// outcome. Transport failures and 5xx/429 responses classify as retryable
// unavailability; a lease overrun classifies as a timeout and is counted
// separately (the requeue-on-expiry signal).
//
// Tracing: the round trip is a "fleet.eval" span, the request carries the
// span's W3C traceparent, and the worker's serialized span subtree from the
// response grafts under the span — so the merged study trace shows remote
// per-candidate work nested exactly where it ran.
func (c *Coordinator) evalOn(ctx context.Context, w *member, sub dse.Shard) (*dse.ShardResult, error) {
	ctx, span := obs.Start(ctx, "fleet.eval", obs.String("worker", w.url))
	defer span.End()
	lctx, cancel := context.WithTimeout(ctx, c.cfg.LeaseTTL)
	defer cancel()

	body, err := json.Marshal(sub)
	if err != nil {
		return nil, guard.Invalid("fleet: marshal shard: %v", err)
	}
	// The worker's own request deadline is aligned with the lease, so a
	// worker holding an expired lease stops burning CPU on it.
	url := fmt.Sprintf("%s/v1/worker/eval?timeout_ms=%d",
		w.url, c.cfg.LeaseTTL/time.Millisecond)
	req, err := http.NewRequestWithContext(lctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, guard.Invalid("fleet: build request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tp := obs.Traceparent(ctx); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}

	resp, err := c.client.Do(req)
	if err != nil {
		if leaseExpired(lctx, ctx) {
			mLeaseExpired.Inc()
			obs.Event(ctx, "fleet.lease_expired")
			return nil, guard.KindError("timeout",
				fmt.Sprintf("fleet: worker %s: lease expired after %v", w.url, c.cfg.LeaseTTL))
		}
		if cerr := guard.CtxErr(ctx); cerr != nil {
			return nil, cerr
		}
		return nil, guard.Unavailable("fleet: worker %s: %v", w.url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		if leaseExpired(lctx, ctx) {
			mLeaseExpired.Inc()
			obs.Event(ctx, "fleet.lease_expired")
			return nil, guard.KindError("timeout",
				fmt.Sprintf("fleet: worker %s: lease expired mid-response after %v", w.url, c.cfg.LeaseTTL))
		}
		return nil, guard.Unavailable("fleet: worker %s: read response: %v", w.url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, classifyStatus(w.url, resp.StatusCode, b)
	}
	var res dse.ShardResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, guard.Unavailable("fleet: worker %s: malformed response: %v", w.url, err)
	}
	if len(res.Outcomes) != len(sub.Cands) {
		return nil, guard.Unavailable("fleet: worker %s: returned %d outcomes for %d candidates",
			w.url, len(res.Outcomes), len(sub.Cands))
	}
	span.Graft(res.Spans)
	return &res, nil
}

// leaseExpired reports whether the lease deadline fired while the parent
// dispatch context is still alive — the signature of a worker overrunning
// its lease, as opposed to the whole study being canceled.
func leaseExpired(lctx, parent context.Context) bool {
	return errors.Is(lctx.Err(), context.DeadlineExceeded) && parent.Err() == nil
}

// classifyStatus maps a worker's non-200 response onto the guard taxonomy:
// 429 and 5xx are the worker's problem (retryable elsewhere; 504 keeps its
// timeout identity), anything else 4xx means the coordinator sent a shard
// the worker permanently rejects.
func classifyStatus(worker string, status int, body []byte) error {
	var ae struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	_ = json.Unmarshal(body, &ae)
	msg := ae.Error
	if msg == "" {
		msg = strings.TrimSpace(string(body))
		if len(msg) > 200 {
			msg = msg[:200]
		}
	}
	switch {
	case status == http.StatusGatewayTimeout:
		return guard.KindError("timeout", fmt.Sprintf("fleet: worker %s: %s", worker, msg))
	case status == http.StatusTooManyRequests || status >= 500:
		return guard.Unavailable("fleet: worker %s: status %d: %s", worker, status, msg)
	default:
		kind := ae.Kind
		if kind == "" {
			kind = "invalid-config"
		}
		return guard.KindError(kind, fmt.Sprintf("fleet: worker %s: status %d: %s", worker, status, msg))
	}
}
