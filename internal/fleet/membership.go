package fleet

import (
	"context"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// Fleet membership. The coordinator keeps one table of every worker it has
// ever heard of — seeded from Config.Workers and extended at runtime by
// POST /v1/worker/register — and tracks each worker through one health
// state machine fed by two inputs, shard traffic and heartbeat probes:
//
//	live ──(BreakerThreshold consecutive retryable shard failures)──▶ suspect
//	live ──(missed probes ≥ SuspectAfter)──▶ suspect, probe due at once
//	suspect ──(probe shard fails retryably)──▶ suspect, new cooldown
//	suspect ──(missed probes ≥ EvictAfter)──▶ evicted
//	suspect/evicted ──(shard or probe success, or re-registration)──▶ live
//	any ──(POST /v1/worker/drain)──▶ draining
//	draining ──(missed probes ≥ EvictAfter)──▶ evicted
//	draining ──(re-registration)──▶ live
//
// Dispatch gating is the only consumer of the state: live members receive
// shards in round-robin order; a suspect member receives exactly one probe
// shard once its cooldown (BreakerCooldown after a traffic trip, none
// after a heartbeat one) has passed, and that shard's success readmits it;
// draining and evicted members receive nothing. Draining members finish
// the shards they already hold (nothing cancels an in-flight lease on a
// drain), and an evicted member's in-flight leases requeue through the
// ordinary lease-expiry path. A membership transition therefore only ever
// changes *who* evaluates a shard, never *what* merges back — the
// coordinator still merges outcomes by candidate index and still degrades
// any unresolved remainder to local evaluation — so tables, CSVs, and
// checkpoints stay byte-identical to a serial run under any
// join/leave/crash/drain schedule.
//
// Observability: fleet.worker_state{worker="<url>"} holds each member's
// State value; fleet.workers_live / fleet.workers_suspect /
// fleet.workers_draining / fleet.workers_evicted gauges count the table;
// every transition emits a fleet.member_join / fleet.member_suspect /
// fleet.member_evict / fleet.member_drain trace event plus a structured
// log line, and every traffic cooldown a fleet.breaker.open event.

// State is a member's position in the membership state machine.
type State int

const (
	// StateLive members receive new shards.
	StateLive State = iota
	// StateSuspect members have missed liveness probes or failed
	// BreakerThreshold shards in a row; they receive one probe shard at a
	// time, once their cooldown has passed.
	StateSuspect
	// StateDraining members finish the shards they hold but receive no
	// new dispatch; set by POST /v1/worker/drain (SIGTERM announcement).
	StateDraining
	// StateEvicted members receive nothing; probe success or
	// re-registration readmits them as live.
	StateEvicted
)

// String renders the state for /readyz summaries, logs, and wire responses.
func (s State) String() string {
	switch s {
	case StateLive:
		return "live"
	case StateSuspect:
		return "suspect"
	case StateDraining:
		return "draining"
	case StateEvicted:
		return "evicted"
	}
	return "unknown"
}

// Defaults for the membership knobs (the cmd flag defaults).
const (
	// DefaultHeartbeat is the coordinator probe interval (and the worker
	// re-registration cadence under -join).
	DefaultHeartbeat = 2 * time.Second
	// DefaultSuspectAfter marks a worker suspect after this long without a
	// successful probe.
	DefaultSuspectAfter = 10 * time.Second
	// DefaultEvictAfter evicts a worker after this long without a
	// successful probe.
	DefaultEvictAfter = 30 * time.Second
)

// member is one worker's membership record. url, seq and gauge are
// immutable; every other field is guarded by the Membership mutex.
type member struct {
	url   string
	seq   int        // join order; keeps round-robin stable and config-faithful
	gauge *obs.Gauge // fleet.worker_state{worker="<url>"}

	state   State
	lastOK  time.Time // last successful probe, eval, or (re-)registration
	fails   int       // consecutive retryable shard failures while live
	until   time.Time // suspect: when the probe shard is due
	probing bool      // suspect: the probe shard is in flight
}

// Membership is the coordinator's worker table. Safe for concurrent use by
// the dispatch path, the probe loop, and the serve register/drain handlers.
type Membership struct {
	mu      sync.Mutex
	members map[string]*member
	nextSeq int
	rr      int // round-robin cursor

	threshold    int
	cooldown     time.Duration
	suspectAfter time.Duration
	evictAfter   time.Duration

	gLive     *obs.Gauge
	gSuspect  *obs.Gauge
	gDraining *obs.Gauge
	gEvicted  *obs.Gauge
}

// MemberCounts is the membership summary /readyz exposes in coordinator
// mode, and what the CI chaos jobs gate on.
type MemberCounts struct {
	Live     int `json:"workers_live"`
	Suspect  int `json:"workers_suspect"`
	Draining int `json:"workers_draining"`
	Evicted  int `json:"workers_evicted"`
}

// newMembership builds the table for a defaulted cfg, seeded with
// cfg.Workers as live members (no events: the table is being
// constructed, nothing joined).
func newMembership(cfg Config, now time.Time) (*Membership, error) {
	m := &Membership{
		members:      map[string]*member{},
		threshold:    cfg.BreakerThreshold,
		cooldown:     cfg.BreakerCooldown,
		suspectAfter: cfg.SuspectAfter,
		evictAfter:   cfg.EvictAfter,
		gLive:        obs.NewGauge("fleet.workers_live"),
		gSuspect:     obs.NewGauge("fleet.workers_suspect"),
		gDraining:    obs.NewGauge("fleet.workers_draining"),
		gEvicted:     obs.NewGauge("fleet.workers_evicted"),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.updateGaugesLocked()
	for _, u := range cfg.Workers {
		u, err := normalizeURL(u)
		if err != nil {
			return nil, err
		}
		if m.members[u] == nil {
			m.addLocked(u, now)
		}
	}
	return m, nil
}

// memberEvent emits one membership-transition trace event and counts it
// under fleet.member_events_total, so churn is visible on a metrics
// dashboard even when no trace is attached.
func memberEvent(ctx context.Context, name string, attrs ...obs.Attr) {
	mMemberEvents.Inc()
	obs.Event(ctx, name, attrs...)
}

// normalizeURL canonicalizes a worker address the way Config.Workers always
// has: trim trailing slashes, default the scheme to http.
func normalizeURL(url string) (string, error) {
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	if url == "" {
		return "", guard.Invalid("fleet: empty worker URL")
	}
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	return url, nil
}

// addLocked is the one member constructor: a new live member at the end
// of the join order. Callers hold mu.
func (m *Membership) addLocked(url string, now time.Time) *member {
	mb := &member{
		url:    url,
		seq:    m.nextSeq,
		gauge:  obs.NewGauge(obs.Name("fleet.worker_state", "worker", metricName(url))),
		lastOK: now,
	}
	m.members[url] = mb
	m.nextSeq++
	m.setLocked(mb, StateLive)
	return mb
}

// setLocked moves mb to state s and refreshes every gauge; callers hold mu.
func (m *Membership) setLocked(mb *member, s State) {
	mb.state = s
	mb.gauge.Set(float64(s))
	m.updateGaugesLocked()
}

// Register adds a worker to the table as live, or readmits one the table
// already knows (suspect, draining, or evicted → live, with its failure
// history cleared so the first shard starts fresh). Re-registering a live
// member is an idempotent heartbeat: lastOK advances, nothing else
// changes. This is the /v1/worker/register entry point.
func (m *Membership) Register(ctx context.Context, url string, now time.Time) (State, error) {
	url, err := normalizeURL(url)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	mb, known := m.members[url]
	joined := !known || mb.state != StateLive
	if !known {
		mb = m.addLocked(url, now)
	}
	mb.lastOK = now
	if joined {
		mb.fails, mb.probing = 0, false
		m.setLocked(mb, StateLive)
	}
	m.mu.Unlock()

	if joined {
		memberEvent(ctx, "fleet.member_join", obs.String("worker", url))
		slog.InfoContext(ctx, "fleet: worker joined", "worker", url, "readmitted", known)
	}
	return StateLive, nil
}

// Drain marks a known worker draining: it finishes the shards it holds but
// receives no new dispatch. Draining is sticky — only re-registration (or
// eventual eviction once its probes stop answering) moves it out. This is
// the /v1/worker/drain entry point, fed by a worker's SIGTERM announcement.
func (m *Membership) Drain(ctx context.Context, url string) (State, error) {
	url, err := normalizeURL(url)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	mb, ok := m.members[url]
	if !ok {
		m.mu.Unlock()
		return 0, guard.Invalid("fleet: drain: unknown worker %s", url)
	}
	changed := mb.state != StateDraining
	m.setLocked(mb, StateDraining)
	m.mu.Unlock()

	if changed {
		memberEvent(ctx, "fleet.member_drain", obs.String("worker", url))
		slog.InfoContext(ctx, "fleet: worker draining", "worker", url)
	}
	return StateDraining, nil
}

// Counts returns the per-state member counts.
func (m *Membership) Counts() MemberCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.countsLocked()
}

func (m *Membership) countsLocked() MemberCounts {
	var c MemberCounts
	for _, mb := range m.members {
		switch mb.state {
		case StateLive:
			c.Live++
		case StateSuspect:
			c.Suspect++
		case StateDraining:
			c.Draining++
		case StateEvicted:
			c.Evicted++
		}
	}
	return c
}

// States returns every member's current state, keyed by normalized URL.
func (m *Membership) States() map[string]State {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]State, len(m.members))
	for u, mb := range m.members {
		out[u] = mb.state
	}
	return out
}

// urls returns every known member URL in join order.
func (m *Membership) urls() []string {
	out := []string{}
	for _, mb := range m.all() {
		out = append(out, mb.url)
	}
	return out
}

// all returns every member in join order — the probe loop's worklist.
func (m *Membership) all() []*member {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allLocked()
}

func (m *Membership) allLocked() []*member {
	out := make([]*member, 0, len(m.members))
	for _, mb := range m.members {
		out = append(out, mb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// pick admits the next member for a shard, round-robin over the rotation:
// the live members, then the suspects whose probe is due, each in join
// order. The first pass skips avoid (the worker that just failed the
// shard); the second relaxes that, so a retry may reuse the failed worker
// if it is the only one left. not is never returned (a hedge runs on a
// different worker than its primary); draining and evicted members are
// never dispatchable. Admitting a suspect reserves its probe slot and
// returns probe = true: the caller owes exactly one traffic call for it.
func (m *Membership) pick(avoid, not *member, now time.Time) (mb *member, probe bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var rotation, due []*member
	for _, w := range m.allLocked() {
		switch {
		case w.state == StateLive:
			rotation = append(rotation, w)
		case w.state == StateSuspect && !w.probing && !now.Before(w.until):
			due = append(due, w)
		}
	}
	rotation = append(rotation, due...)
	n := len(rotation)
	if n == 0 {
		return nil, false
	}
	for _, skipAvoid := range [...]bool{true, false} {
		start := m.rr % n
		m.rr++
		for i := 0; i < n; i++ {
			w := rotation[(start+i)%n]
			if w == not || (skipAvoid && w == avoid) {
				continue
			}
			w.probing = w.state == StateSuspect
			return w, w.probing
		}
	}
	return nil, false
}

// lookup returns the member for a (raw or normalized) URL, or nil.
func (m *Membership) lookup(url string) *member {
	url, err := normalizeURL(url)
	if err != nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.members[url]
}

// size returns the table size (every state).
func (m *Membership) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.members)
}

// markSuccess records a successful interaction (probe or shard eval) with a
// member: its liveness clock and failure count reset, its probe slot is
// released, and a suspect or evicted member is readmitted to live.
// Draining members stay draining — a drained worker finishing its last
// shard is not an application to rejoin.
func (m *Membership) markSuccess(ctx context.Context, mb *member, now time.Time) {
	m.mu.Lock()
	mb.lastOK = now
	mb.fails, mb.probing = 0, false
	readmitted := mb.state == StateSuspect || mb.state == StateEvicted
	if readmitted {
		m.setLocked(mb, StateLive)
	}
	m.mu.Unlock()

	if readmitted {
		memberEvent(ctx, "fleet.member_join", obs.String("worker", mb.url), obs.String("via", "probe"))
		slog.InfoContext(ctx, "fleet: worker readmitted", "worker", mb.url)
	}
}

// traffic is the shard-traffic feed: it applies one shard attempt's
// outcome to the member that ran it. A success is markSuccess. A
// retryable failure (retryable: worker-attributable, seen while the
// attempt was still undecided) counts toward BreakerThreshold on a live
// member, whose last allowed failure makes it suspect; on a suspect member
// it starts a new cooldown. Both are a trip: a fleet.breaker.open event.
// Every outcome releases the probe slot the attempt held (probe), so a
// canceled hedge loser, a permanent rejection, or a canceled study cannot
// strand a suspect member without probes. The liveness clock is not
// reset by a failure: eviction keys off lastOK, so a worker that keeps
// failing shards without answering a probe still ages toward eviction.
func (m *Membership) traffic(ctx context.Context, mb *member, probe bool, err error, retryable bool, now time.Time) {
	if err == nil {
		m.markSuccess(ctx, mb, now)
		return
	}
	m.mu.Lock()
	if probe {
		mb.probing = false
	}
	tripped, suspected := false, false
	if retryable {
		switch mb.state {
		case StateLive:
			mb.fails++
			tripped = mb.fails >= m.threshold
			suspected = tripped
		case StateSuspect:
			tripped = true
		}
	}
	if tripped {
		mb.fails, mb.until = 0, now.Add(m.cooldown)
		m.setLocked(mb, StateSuspect)
	}
	m.mu.Unlock()

	if tripped {
		obs.Event(ctx, "fleet.breaker.open", obs.String("worker", mb.url))
	}
	if suspected {
		memberEvent(ctx, "fleet.member_suspect", obs.String("worker", mb.url), obs.String("via", "breaker"))
		slog.WarnContext(ctx, "fleet: worker suspect", "worker", mb.url, "via", "breaker")
	}
}

// probeResult is the heartbeat feed: it applies one liveness probe
// outcome. Success is markSuccess, so a recovered worker is dispatchable
// immediately instead of waiting out a cooldown. Failure ages the member
// along live → suspect → evicted against the SuspectAfter / EvictAfter
// deadlines, measured from the last successful interaction; a member made
// suspect this way has its probe shard due at once. A draining member
// whose probes stop answering is evicted on the same clock, which is how
// drained-and-exited processes leave the table's active states.
func (m *Membership) probeResult(ctx context.Context, mb *member, ok bool, now time.Time) {
	if ok {
		m.markSuccess(ctx, mb, now)
		return
	}
	m.mu.Lock()
	age := now.Sub(mb.lastOK)
	var to State = -1
	switch {
	case mb.state == StateEvicted:
		// Already out; nothing to age.
	case age >= m.evictAfter:
		to = StateEvicted
	case age >= m.suspectAfter && mb.state == StateLive:
		to = StateSuspect
		mb.until = time.Time{}
	}
	if to >= 0 {
		m.setLocked(mb, to)
	}
	m.mu.Unlock()

	switch to {
	case StateSuspect:
		memberEvent(ctx, "fleet.member_suspect", obs.String("worker", mb.url), obs.String("via", "probe"))
		slog.WarnContext(ctx, "fleet: worker suspect", "worker", mb.url, "via", "probe", "age", age)
	case StateEvicted:
		memberEvent(ctx, "fleet.member_evict", obs.String("worker", mb.url))
		slog.WarnContext(ctx, "fleet: worker evicted", "worker", mb.url, "age", age)
	}
}

// updateGaugesLocked refreshes the fleet.workers_* gauges; callers hold mu.
func (m *Membership) updateGaugesLocked() {
	c := m.countsLocked()
	m.gLive.Set(float64(c.Live))
	m.gSuspect.Set(float64(c.Suspect))
	m.gDraining.Set(float64(c.Draining))
	m.gEvicted.Set(float64(c.Evicted))
}
