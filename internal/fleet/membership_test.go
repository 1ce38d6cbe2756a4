package fleet

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neurometer/internal/dse"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// memberWorker is a test worker that answers both halves of the fleet
// protocol: GET /readyz (probe target) and POST /v1/worker/eval.
func memberWorker() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.Handle("POST /v1/worker/eval", workerHandler())
	return mux
}

// TestMembershipTransitions drives the full state machine with a controlled
// clock through probeResult — no real probes, no sleeps.
func TestMembershipTransitions(t *testing.T) {
	c, err := New(Config{
		Workers:      []string{"w1:8080", "w2:8080"},
		SuspectAfter: 10 * time.Second,
		EvictAfter:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	t0 := time.Now()
	w1 := c.m.lookup("w1:8080")
	if w1 == nil {
		t.Fatal("seeded worker missing from table")
	}

	// Failed probes age live → suspect → evicted against lastOK.
	c.m.probeResult(ctx, w1, false, t0.Add(5*time.Second))
	if st := c.m.States()["http://w1:8080"]; st != StateLive {
		t.Fatalf("after young failed probe: %v, want live", st)
	}
	c.m.probeResult(ctx, w1, false, t0.Add(11*time.Second))
	if st := c.m.States()["http://w1:8080"]; st != StateSuspect {
		t.Fatalf("past SuspectAfter: %v, want suspect", st)
	}
	c.m.probeResult(ctx, w1, false, t0.Add(31*time.Second))
	if st := c.m.States()["http://w1:8080"]; st != StateEvicted {
		t.Fatalf("past EvictAfter: %v, want evicted", st)
	}
	if got := c.m.Counts(); got.Live != 1 || got.Evicted != 1 {
		t.Fatalf("counts = %+v, want 1 live 1 evicted", got)
	}

	// A successful probe readmits an evicted member and resets its clock.
	c.m.probeResult(ctx, w1, true, t0.Add(40*time.Second))
	if st := c.m.States()["http://w1:8080"]; st != StateLive {
		t.Fatalf("after successful probe: %v, want live", st)
	}

	// Drain is sticky: successful probes do not readmit a draining member...
	if _, err := c.m.Drain(ctx, "w1:8080"); err != nil {
		t.Fatal(err)
	}
	c.m.probeResult(ctx, w1, true, t0.Add(50*time.Second))
	if st := c.m.States()["http://w1:8080"]; st != StateDraining {
		t.Fatalf("probe success on draining member: %v, want draining", st)
	}
	// ...but a drained process that stops answering still ages out, and
	// re-registration is the way back in.
	c.m.probeResult(ctx, w1, false, t0.Add(90*time.Second))
	if st := c.m.States()["http://w1:8080"]; st != StateEvicted {
		t.Fatalf("draining member past EvictAfter: %v, want evicted", st)
	}
	if _, err := c.m.Register(ctx, "w1:8080", t0.Add(95*time.Second)); err != nil {
		t.Fatal(err)
	}
	if st := c.m.States()["http://w1:8080"]; st != StateLive {
		t.Fatalf("after re-registration: %v, want live", st)
	}

	// Unknown workers cannot drain; registration is how the table grows.
	if _, err := c.m.Drain(ctx, "w9:8080"); !errors.Is(err, guard.ErrInvalidConfig) {
		t.Fatalf("drain of unknown worker: %v, want invalid-config", err)
	}
	if _, err := c.m.Register(ctx, "w3:8080", t0); err != nil {
		t.Fatal(err)
	}
	if got := c.m.Counts().Live; got != 3 {
		t.Fatalf("live = %d after join, want 3", got)
	}
	if g := obs.NewGauge("fleet.workers_live").Value(); g != 3 {
		t.Fatalf("fleet.workers_live gauge = %v, want 3", g)
	}
}

// TestNewValidatesMembershipKnobs: EvictAfter must exceed SuspectAfter, and
// an empty worker list starts an empty table that registration fills.
func TestNewValidatesMembershipKnobs(t *testing.T) {
	_, err := New(Config{Workers: []string{"w1"}, SuspectAfter: 30 * time.Second, EvictAfter: 10 * time.Second})
	if !errors.Is(err, guard.ErrInvalidConfig) {
		t.Fatalf("EvictAfter < SuspectAfter: err = %v, want invalid-config", err)
	}
	c, err := New(Config{})
	if err != nil {
		t.Fatalf("no seed workers: %v", err)
	}
	defer c.Close()
	if n := c.m.size(); n != 0 {
		t.Fatalf("unseeded coordinator table size = %d, want 0", n)
	}
	if _, err := c.m.Register(context.Background(), "w1:8080", time.Now()); err != nil {
		t.Fatal(err)
	}
	if got := c.m.Counts().Live; got != 1 {
		t.Fatalf("live = %d after first registration, want 1", got)
	}
}

// TestValidateFlags pins the CLI fail-fast contract: every bad combination
// is invalid-config (exit code 2).
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name     string
		lease    time.Duration
		hedge    time.Duration
		attempts int
		ok       bool
	}{
		{"defaults", DefaultLeaseTTL, DefaultHedgeAfter, DefaultMaxAttempts, true},
		{"hedging-disabled", time.Minute, -1, 2, true},
		{"zero-lease", 0, -1, 2, false},
		{"negative-lease", -time.Second, -1, 2, false},
		{"hedge-equals-lease", time.Minute, time.Minute, 2, false},
		{"hedge-exceeds-lease", time.Minute, 2 * time.Minute, 2, false},
		{"zero-attempts", time.Minute, -1, 0, false},
	}
	for _, tc := range cases {
		err := ValidateFlags(tc.lease, tc.hedge, tc.attempts)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if !errors.Is(err, guard.ErrInvalidConfig) {
				t.Errorf("%s: err = %v, want invalid-config", tc.name, err)
			}
			if code := guard.ExitCode(err); code != 2 {
				t.Errorf("%s: exit code = %d, want 2", tc.name, code)
			}
		}
	}
}

// TestHeartbeatEvictsDeadAndReadmitsRegistered: the probe loop notices a
// worker that died without draining (connection refused) and ages it to
// evicted within EvictAfter, while the healthy worker stays live; a
// re-registration readmits the dead one instantly.
func TestHeartbeatEvictsDeadAndReadmitsRegistered(t *testing.T) {
	healthy := httptest.NewServer(memberWorker())
	defer healthy.Close()
	dead := httptest.NewServer(memberWorker())
	deadURL := dead.URL
	dead.Close() // SIGKILL stand-in: the port now refuses connections

	c, err := New(Config{
		Workers:      []string{healthy.URL, deadURL},
		Heartbeat:    20 * time.Millisecond,
		SuspectAfter: 60 * time.Millisecond,
		EvictAfter:   150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if c.m.States()[deadURL] == StateEvicted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead worker never evicted; states = %v", c.m.States())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := c.m.States()[healthy.URL]; st != StateLive {
		t.Fatalf("healthy worker = %v, want live", st)
	}
	if g := obs.NewGauge("fleet.workers_evicted").Value(); g < 1 {
		t.Fatalf("fleet.workers_evicted gauge = %v, want >= 1", g)
	}

	// The worker restarts and registers: live again, immediately.
	if _, err := c.m.Register(context.Background(), deadURL, time.Now()); err != nil {
		t.Fatal(err)
	}
	if st := c.m.States()[deadURL]; st != StateLive {
		t.Fatalf("re-registered worker = %v, want live", st)
	}
}

// TestFleetChurnByteIdentical is the tentpole acceptance test: a scripted
// join → suspect → evict → readmit → drain schedule runs concurrently with
// a real study, and the study's table, CSV, and checkpoint bytes still
// match the serial reference exactly. Run under -race this also pins the
// membership table's concurrency contract against live dispatch.
func TestFleetChurnByteIdentical(t *testing.T) {
	st := tinyStudy(t)
	w1 := httptest.NewServer(memberWorker())
	defer w1.Close()
	w2 := httptest.NewServer(memberWorker())
	defer w2.Close()

	cfg := fastCfg(w1.URL) // w2 joins mid-study
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dir := t.TempDir()
	want, wantCk := runStudy(t, st, dir, "serial.ckpt", nil)

	ctx := context.Background()
	churn := func() {
		mb1 := c.m.lookup(w1.URL)
		step := 5 * time.Millisecond
		time.Sleep(step)
		// join: a second worker registers while shards are in flight.
		c.m.Register(ctx, w2.URL, time.Now())
		time.Sleep(step)
		// suspect then evict w1 on a synthetic clock (its real process
		// stays up, so its in-flight leases keep resolving — the eviction
		// only gates new dispatch, exactly like a frozen process).
		c.m.probeResult(ctx, mb1, false, time.Now().Add(cfg.SuspectAfter+DefaultSuspectAfter))
		time.Sleep(step)
		c.m.probeResult(ctx, mb1, false, time.Now().Add(DefaultEvictAfter+time.Hour))
		time.Sleep(step)
		// readmit w1 via registration, then drain w2.
		c.m.Register(ctx, w1.URL, time.Now())
		time.Sleep(step)
		c.m.Drain(ctx, w2.URL)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	dispatch := func(dctx context.Context, sh dse.Shard, report func(dse.ShardOutcome)) {
		go func() { defer wg.Done(); churn() }()
		c.Dispatch(dctx, sh, report)
	}
	got, gotCk := runStudy(t, st, dir, "churn.ckpt", dispatch)
	wg.Wait()

	if got != want {
		t.Fatalf("churn output differs from serial:\n--- serial\n%s\n--- churn\n%s", want, got)
	}
	if string(gotCk) != string(wantCk) {
		t.Fatalf("churn checkpoint differs from serial")
	}
	states := c.m.States()
	if states[w1.URL] != StateLive {
		t.Fatalf("w1 = %v after readmission, want live", states[w1.URL])
	}
	if states[w2.URL] != StateDraining {
		t.Fatalf("w2 = %v after drain, want draining", states[w2.URL])
	}
}

// TestFleetDrainFinishesLeasedShard pins the drain/lease race: a worker
// drained while holding an active lease finishes that shard and its result
// merges normally; afterwards it receives no new dispatch.
func TestFleetDrainFinishesLeasedShard(t *testing.T) {
	st := tinyStudy(t)
	gate := make(chan struct{})
	var reqs, evals int64
	var mu sync.Mutex
	drainMux := http.NewServeMux()
	drainMux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	started := make(chan struct{}, 16)
	drainMux.Handle("POST /v1/worker/eval", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reqs++
		mu.Unlock()
		started <- struct{}{}
		<-gate // hold the lease until the test has drained us
		workerHandler()(w, r)
		mu.Lock()
		evals++
		mu.Unlock()
	}))
	drainW := httptest.NewServer(drainMux)
	defer drainW.Close()
	other := httptest.NewServer(memberWorker())
	defer other.Close()

	cfg := fastCfg(drainW.URL, other.URL)
	cfg.ShardSize = 4 // 8 candidates -> 2 shards: one per worker
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := t.TempDir()
	want, _ := runStudy(t, st, dir, "serial.ckpt", nil)

	// Count every reported outcome per candidate index: a double-requeue
	// that merged twice would show up here even though dse would drop it.
	reports := map[int]int{}
	var rmu sync.Mutex
	done := make(chan struct{})
	var got string
	go func() {
		defer close(done)
		got, _ = runStudy(t, st, dir, "drain.ckpt", func(ctx context.Context, sh dse.Shard, report func(dse.ShardOutcome)) {
			c.Dispatch(ctx, sh, func(o dse.ShardOutcome) {
				rmu.Lock()
				reports[o.Index]++
				rmu.Unlock()
				report(o)
			})
		})
	}()

	<-started // drainW holds an active lease now
	if _, err := c.m.Drain(context.Background(), drainW.URL); err != nil {
		t.Fatal(err)
	}
	close(gate) // the drained worker finishes its leased shard
	<-done

	if got != want {
		t.Fatalf("drain-race output differs from serial:\n--- serial\n%s\n--- got\n%s", want, got)
	}
	mu.Lock()
	gotReqs, gotEvals := reqs, evals
	mu.Unlock()
	if gotReqs != 1 {
		t.Fatalf("drained worker received %d shards, want exactly 1 (no new dispatch after drain)", gotReqs)
	}
	if gotEvals != 1 {
		t.Fatalf("drained worker completed %d evals, want 1 (leased shard must finish)", gotEvals)
	}
	rmu.Lock()
	defer rmu.Unlock()
	for idx, n := range reports {
		if n != 1 {
			t.Fatalf("candidate %d reported %d times, want exactly once", idx, n)
		}
	}

	// A fresh study through the same coordinator never touches the drained
	// worker.
	got2, _ := runStudy(t, st, dir, "after.ckpt", c.Dispatch)
	if got2 != want {
		t.Fatalf("post-drain study differs from serial")
	}
	mu.Lock()
	defer mu.Unlock()
	if reqs != gotReqs {
		t.Fatalf("drained worker received %d new shards in a post-drain study, want 0", reqs-gotReqs)
	}
}

// TestFleetDrainedLeaseExpiryRequeuesOnce: a worker drained while wedged on
// a lease lets the lease expire; the shard requeues elsewhere exactly once
// and every candidate still merges exactly once — drain plus expiry is not
// a double requeue.
func TestFleetDrainedLeaseExpiryRequeuesOnce(t *testing.T) {
	st := tinyStudy(t)
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	var reqs int64
	var mu sync.Mutex
	wedgedMux := http.NewServeMux()
	wedgedMux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	wedgedMux.Handle("POST /v1/worker/eval", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reqs++
		mu.Unlock()
		started <- struct{}{}
		select {
		case <-gate:
		case <-r.Context().Done(): // lease expiry cancels the request
		}
	}))
	wedged := httptest.NewServer(wedgedMux)
	defer wedged.Close()
	other := httptest.NewServer(memberWorker())
	defer other.Close()

	cfg := fastCfg(wedged.URL, other.URL)
	cfg.ShardSize = 64 // one shard holding the whole study
	cfg.LeaseTTL = 250 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := t.TempDir()
	want, _ := runStudy(t, st, dir, "serial.ckpt", nil)

	expiredBefore := obs.NewCounter("fleet.lease_expired_total").Value()
	reports := map[int]int{}
	var rmu sync.Mutex
	done := make(chan struct{})
	var got string
	go func() {
		defer close(done)
		got, _ = runStudy(t, st, dir, "wedged.ckpt", func(ctx context.Context, sh dse.Shard, report func(dse.ShardOutcome)) {
			c.Dispatch(ctx, sh, func(o dse.ShardOutcome) {
				rmu.Lock()
				reports[o.Index]++
				rmu.Unlock()
				report(o)
			})
		})
	}()

	<-started // the wedged worker holds the study's only lease
	if _, err := c.m.Drain(context.Background(), wedged.URL); err != nil {
		t.Fatal(err)
	}
	// Never open the gate: the lease expires under the drained worker and
	// the shard must requeue to the other worker exactly once.
	<-done
	close(gate)

	if got != want {
		t.Fatalf("wedged-drain output differs from serial:\n--- serial\n%s\n--- got\n%s", want, got)
	}
	if obs.NewCounter("fleet.lease_expired_total").Value() != expiredBefore+1 {
		t.Fatalf("lease expiries = %d, want exactly 1 more than %d",
			obs.NewCounter("fleet.lease_expired_total").Value(), expiredBefore)
	}
	mu.Lock()
	if reqs != 1 {
		t.Fatalf("wedged worker received %d shards, want 1 (drain gates the retry)", reqs)
	}
	mu.Unlock()
	rmu.Lock()
	defer rmu.Unlock()
	for idx, n := range reports {
		if n != 1 {
			t.Fatalf("candidate %d reported %d times, want exactly once", idx, n)
		}
	}
}

// healthMember builds a one-member table with the given traffic knobs and
// returns it with its member, so the traffic feed can be driven on a
// controlled clock.
func healthMember(t *testing.T, threshold int, cooldown time.Duration, now time.Time) (*Membership, *member) {
	t.Helper()
	m, err := newMembership(Config{
		Workers:          []string{t.Name()},
		BreakerThreshold: threshold,
		BreakerCooldown:  cooldown,
		SuspectAfter:     DefaultSuspectAfter,
		EvictAfter:       DefaultEvictAfter,
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	return m, m.all()[0]
}

var errWorkerDown = guard.Unavailable("worker down")

// TestBreakerLifecycle walks the traffic feed: live → (threshold retryable
// failures) → suspect → (cooldown) → one probe shard → (success) → live.
func TestBreakerLifecycle(t *testing.T) {
	ctx := context.Background()
	now := time.Unix(1000, 0)
	const threshold = 3
	const cooldown = 10 * time.Second
	m, mb := healthMember(t, threshold, cooldown, now)
	g := obs.NewGauge(obs.Name("fleet.worker_state", "worker", metricName(mb.url)))
	state := func() State { return m.States()[mb.url] }

	// Live: admitted without a probe, absorbs sub-threshold failures.
	for i := 0; i < threshold-1; i++ {
		if w, probe := m.pick(nil, nil, now); w != mb || probe {
			t.Fatalf("live member must be admitted without a probe (failure %d)", i)
		}
		m.traffic(ctx, mb, false, errWorkerDown, true, now)
	}
	if state() != StateLive {
		t.Fatalf("member tripped below threshold: %v", state())
	}

	// A success resets the consecutive-failure count.
	m.traffic(ctx, mb, false, nil, false, now)
	for i := 0; i < threshold-1; i++ {
		m.traffic(ctx, mb, false, errWorkerDown, true, now)
	}
	if state() != StateLive {
		t.Fatalf("success did not reset the failure count: %v", state())
	}

	// The threshold-th consecutive failure trips it suspect.
	m.traffic(ctx, mb, false, errWorkerDown, true, now)
	if state() != StateSuspect {
		t.Fatalf("member did not trip at threshold: %v", state())
	}
	if g.Value() != float64(StateSuspect) {
		t.Fatalf("fleet.worker_state = %v, want %d", g.Value(), StateSuspect)
	}

	// The cooldown blocks admission.
	if w, _ := m.pick(nil, nil, now.Add(cooldown/2)); w != nil {
		t.Fatal("suspect member admitted a shard before its cooldown")
	}

	// Cooldown over: exactly one probe admitted.
	probeTime := now.Add(cooldown + time.Second)
	if w, probe := m.pick(nil, nil, probeTime); w != mb || !probe {
		t.Fatal("suspect member must be admitted as a probe after its cooldown")
	}
	if w, _ := m.pick(nil, nil, probeTime); w != nil {
		t.Fatal("suspect member admitted a second concurrent probe")
	}

	// Probe success readmits it.
	m.traffic(ctx, mb, true, nil, false, probeTime)
	if state() != StateLive {
		t.Fatalf("probe success did not readmit the member: %v", state())
	}
	if g.Value() != float64(StateLive) {
		t.Fatalf("fleet.worker_state = %v, want %d", g.Value(), StateLive)
	}
	if w, probe := m.pick(nil, nil, probeTime); w != mb || probe {
		t.Fatal("readmitted member must be admitted without a probe")
	}
}

// TestBreakerProbeFailureReopens: a probe shard that fails retryably starts
// a full new cooldown, counted from the failure.
func TestBreakerProbeFailureReopens(t *testing.T) {
	ctx := context.Background()
	now := time.Unix(2000, 0)
	const cooldown = 10 * time.Second
	m, mb := healthMember(t, 1, cooldown, now)

	m.traffic(ctx, mb, false, errWorkerDown, true, now)
	if st := m.States()[mb.url]; st != StateSuspect {
		t.Fatalf("threshold-1 member must trip on its first failure: %v", st)
	}
	probeTime := now.Add(cooldown + time.Second)
	if w, probe := m.pick(nil, nil, probeTime); w != mb || !probe {
		t.Fatal("suspect member must be admitted as a probe after its cooldown")
	}
	m.traffic(ctx, mb, true, errWorkerDown, true, probeTime)
	if st := m.States()[mb.url]; st != StateSuspect {
		t.Fatalf("failed probe: %v, want suspect", st)
	}
	if w, _ := m.pick(nil, nil, probeTime.Add(cooldown/2)); w != nil {
		t.Fatal("failed probe admitted another before a fresh cooldown")
	}
	if w, _ := m.pick(nil, nil, probeTime.Add(cooldown+time.Second)); w != mb {
		t.Fatal("suspect member must probe again after its new cooldown")
	}
}

// TestBreakerProbeReleasedOnOutcome: every outcome of a probe shard releases
// the slot, never leaks it. A canceled hedge loser, a permanent rejection,
// and a canceled study change nothing else — the next probe is due at
// once; a retryable failure starts a new cooldown; a success readmits.
func TestBreakerProbeReleasedOnOutcome(t *testing.T) {
	ctx := context.Background()
	now := time.Unix(3000, 0)
	const cooldown = time.Second
	m, mb := healthMember(t, 1, cooldown, now)
	m.traffic(ctx, mb, false, errWorkerDown, true, now)

	probeTime := now.Add(2 * cooldown)
	for _, err := range []error{
		guard.ErrCanceled, // hedge loser or canceled study
		guard.Invalid("shard rejected"),
		guard.Unavailable("lost the race"), // retryable, but the attempt was already decided
	} {
		if w, probe := m.pick(nil, nil, probeTime); w != mb || !probe {
			t.Fatalf("probe slot leaked before outcome %v", err)
		}
		m.traffic(ctx, mb, true, err, false, probeTime)
		if st := m.States()[mb.url]; st != StateSuspect {
			t.Fatalf("outcome %v: %v, want suspect", err, st)
		}
	}
	if w, _ := m.pick(nil, nil, probeTime); w != mb {
		t.Fatal("probe slot leaked: no probe admitted after the released outcomes")
	}
	m.traffic(ctx, mb, true, errWorkerDown, true, probeTime) // fails → new cooldown
	next := probeTime.Add(2 * cooldown)
	if w, _ := m.pick(nil, nil, next); w != mb {
		t.Fatal("probe slot leaked: second probe not admitted after cooldown")
	}
	m.traffic(ctx, mb, true, nil, false, next)
	if st := m.States()[mb.url]; st != StateLive {
		t.Fatalf("state %v, want live", st)
	}
}

// TestBreakerHalfOpenSingleProbeConcurrent: when the cooldown elapses and
// many shards race to dispatch against the same recovering worker, exactly
// one wins the probe slot — the rest are turned away until the probe
// reports an outcome. Run under -race this also proves pick's admission is
// properly synchronized.
func TestBreakerHalfOpenSingleProbeConcurrent(t *testing.T) {
	ctx := context.Background()
	now := time.Unix(4000, 0)
	const cooldown = time.Second
	m, mb := healthMember(t, 1, cooldown, now)
	m.traffic(ctx, mb, false, errWorkerDown, true, now)

	// N goroutines — one per "shard just completed, find me a worker" —
	// all observe the cooldown as elapsed and call pick at once.
	const n = 32
	probeTime := now.Add(2 * cooldown)
	start := make(chan struct{})
	var wg sync.WaitGroup
	var admitted atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if w, _ := m.pick(nil, nil, probeTime); w != nil {
				admitted.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("suspect member admitted %d concurrent probes, want exactly 1", got)
	}

	// The winner's success readmits the member and the stampede is
	// admitted in full.
	m.traffic(ctx, mb, true, nil, false, probeTime)
	admitted.Store(0)
	for i := 0; i < n; i++ {
		if w, _ := m.pick(nil, nil, probeTime); w != nil {
			admitted.Add(1)
		}
	}
	if got := admitted.Load(); got != n {
		t.Fatalf("live member admitted %d of %d, want all", got, n)
	}
}

// TestHeartbeatFeedsProbeSlot: a member made suspect by heartbeat has its
// probe shard due at once, takes one at a time, and a successful heartbeat
// readmits it, clearing its failure count and probe slot.
func TestHeartbeatFeedsProbeSlot(t *testing.T) {
	ctx := context.Background()
	now := time.Unix(5000, 0)
	m, mb := healthMember(t, 2, time.Hour, now)
	m.traffic(ctx, mb, false, errWorkerDown, true, now) // one failure short of a trip

	missed := now.Add(DefaultSuspectAfter)
	m.probeResult(ctx, mb, false, missed)
	if w, probe := m.pick(nil, nil, missed); w != mb || !probe {
		t.Fatal("heartbeat-suspect member must get its probe shard at once")
	}
	if w, _ := m.pick(nil, nil, missed); w != nil {
		t.Fatal("heartbeat-suspect member admitted a second concurrent probe")
	}

	m.probeResult(ctx, mb, true, missed)
	if st := m.States()[mb.url]; st != StateLive {
		t.Fatalf("after a successful heartbeat: %v, want live", st)
	}
	m.traffic(ctx, mb, false, errWorkerDown, true, missed)
	if st := m.States()[mb.url]; st != StateLive {
		t.Fatalf("heartbeat success did not clear the failure count: %v", st)
	}
}
