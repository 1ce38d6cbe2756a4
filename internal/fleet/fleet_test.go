package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"neurometer/internal/dse"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/perfsim"
)

// tinyStudy materializes a small, fast runtime study (two brawniness
// classes, one workload) — the same shape the dse tests sweep.
func tinyStudy(t *testing.T) *dse.Study {
	t.Helper()
	cs := dse.TableI()
	cs.XChoices = []int{8, 64}
	cs.NChoices = []int{2, 4}
	cs.MaxTiles = 32
	st, err := dse.NewStudy(context.Background(), dse.StudySpec{
		Constraints: cs,
		Spec:        dse.BatchSpec{Fixed: 8},
		Opt:         perfsim.DefaultOptions(),
		Models:      []string{"alexnet"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// workerHandler behaves like a neurometerd worker's /v1/worker/eval: decode
// the shard, pass the fleet.shard fault-injection site, evaluate, respond.
// Errors render in the serve wire form ({error, kind}) with the guard
// status mapping — exactly what the coordinator's classifier expects.
func workerHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var sh dse.Shard
		if err := json.NewDecoder(r.Body).Decode(&sh); err != nil {
			writeWorkerErr(w, 400, "invalid-config", err.Error())
			return
		}
		if err := guard.Inject(r.Context(), "fleet.shard"); err != nil {
			writeWorkerErr(w, guard.HTTPStatus(err), guard.Kind(err), err.Error())
			return
		}
		outs, err := dse.EvalShard(r.Context(), sh, 1, nil)
		if err != nil {
			writeWorkerErr(w, guard.HTTPStatus(err), guard.Kind(err), err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(dse.ShardResult{Outcomes: outs})
	}
}

func writeWorkerErr(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg, "kind": kind})
}

// fastCfg returns a Config tuned for test wall-clock: tiny backoff, no
// hedging unless a test opts in.
func fastCfg(workers ...string) Config {
	return Config{
		Workers:         workers,
		ShardSize:       1,
		LeaseTTL:        5 * time.Second,
		HedgeAfter:      -1,
		MaxAttempts:     4,
		Backoff:         guard.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		BreakerCooldown: 20 * time.Millisecond,
	}
}

// runStudy evaluates the tiny study with the given dispatcher and returns
// its formatted rows and checkpoint bytes.
func runStudy(t *testing.T, st *dse.Study, dir, name string, dispatch func(context.Context, dse.Shard, func(dse.ShardOutcome))) (string, []byte) {
	t.Helper()
	path := filepath.Join(dir, name)
	rows, err := st.Run(context.Background(), dse.Hardening{Workers: 1, Dispatch: dispatch}, path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return dse.FormatRuntimeRows(rows) + "\n" + dse.RuntimeRowsCSV(rows), b
}

// TestFleetByteIdenticalToSerial: the headline contract. A two-worker fleet
// run emits the same table, CSV, and checkpoint bytes as a serial
// in-process run.
func TestFleetByteIdenticalToSerial(t *testing.T) {
	st := tinyStudy(t)
	w1 := httptest.NewServer(workerHandler())
	defer w1.Close()
	w2 := httptest.NewServer(workerHandler())
	defer w2.Close()

	c, err := New(fastCfg(w1.URL, w2.URL))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want, wantCk := runStudy(t, st, dir, "serial.ckpt", nil)
	got, gotCk := runStudy(t, st, dir, "fleet.ckpt", c.Dispatch)
	if got != want {
		t.Fatalf("fleet output differs from serial:\n--- serial\n%s\n--- fleet\n%s", want, got)
	}
	if string(gotCk) != string(wantCk) {
		t.Fatalf("fleet checkpoint differs from serial:\n--- serial\n%s\n--- fleet\n%s", wantCk, gotCk)
	}
}

// TestFleetSurvivesWorkerDeathMidStudy: one of two workers dies after its
// first shard (connections drop mid-request from then on). The study must
// complete with byte-identical output — the dead worker's shards retry on
// the survivor.
func TestFleetSurvivesWorkerDeathMidStudy(t *testing.T) {
	st := tinyStudy(t)
	var served atomic.Int64
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 1 {
			panic(http.ErrAbortHandler) // slam the connection shut mid-request
		}
		workerHandler()(w, r)
	}))
	defer dying.Close()
	healthy := httptest.NewServer(workerHandler())
	defer healthy.Close()

	cfg := fastCfg(dying.URL, healthy.URL)
	cfg.BreakerThreshold = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want, wantCk := runStudy(t, st, dir, "serial.ckpt", nil)
	got, gotCk := runStudy(t, st, dir, "fleet.ckpt", c.Dispatch)
	if got != want {
		t.Fatalf("output with dying worker differs from serial:\n--- serial\n%s\n--- fleet\n%s", want, got)
	}
	if string(gotCk) != string(wantCk) {
		t.Fatalf("checkpoint with dying worker differs from serial")
	}
}

// TestFleetInjectedWorkerFaultRetries: a fault injected at the worker-side
// fleet.shard site (one 503) must be retried transparently; output stays
// byte-identical and fleet.retries_total moves.
func TestFleetInjectedWorkerFaultRetries(t *testing.T) {
	defer guard.DisarmAll()
	st := tinyStudy(t)
	w1 := httptest.NewServer(workerHandler())
	defer w1.Close()
	w2 := httptest.NewServer(workerHandler())
	defer w2.Close()

	c, err := New(fastCfg(w1.URL, w2.URL))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want, _ := runStudy(t, st, dir, "serial.ckpt", nil)

	retriesBefore := obs.NewCounter("fleet.retries_total").Value()
	guard.Arm("fleet.shard", guard.Fault{Count: 1, Err: guard.Unavailable("injected worker fault")})
	got, _ := runStudy(t, st, dir, "fleet.ckpt", c.Dispatch)
	if got != want {
		t.Fatalf("output with injected fault differs from serial:\n--- serial\n%s\n--- fleet\n%s", want, got)
	}
	if obs.NewCounter("fleet.retries_total").Value() == retriesBefore {
		t.Fatalf("injected worker fault did not register a retry")
	}
}

// TestFleetAllWorkersDownFallsBackLocal: a coordinator whose entire fleet
// is unreachable must not fail the study — every candidate falls through to
// local evaluation, byte-identically.
func TestFleetAllWorkersDownFallsBackLocal(t *testing.T) {
	st := tinyStudy(t)
	dead := httptest.NewServer(nil)
	dead.Close() // nothing listens here anymore

	cfg := fastCfg(dead.URL)
	cfg.MaxAttempts = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want, wantCk := runStudy(t, st, dir, "serial.ckpt", nil)
	got, gotCk := runStudy(t, st, dir, "fleet.ckpt", c.Dispatch)
	if got != want {
		t.Fatalf("output with dead fleet differs from serial:\n--- serial\n%s\n--- local\n%s", want, got)
	}
	if string(gotCk) != string(wantCk) {
		t.Fatalf("checkpoint with dead fleet differs from serial")
	}
}

// TestFleetLeaseExpiryRequeues: a worker that sits on a shard past the
// lease TTL loses it; the shard requeues elsewhere and the study completes
// byte-identically. fleet.lease_expired_total witnesses the mechanism.
func TestFleetLeaseExpiryRequeues(t *testing.T) {
	st := tinyStudy(t)
	var stalls atomic.Int64
	done := make(chan struct{}) // unblocks the stalled handler at test end
	stalling := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stalls.Add(1) == 1 {
			// Hold the first shard until the lease reaps it client-side.
			select {
			case <-r.Context().Done():
			case <-done:
			}
			return
		}
		workerHandler()(w, r)
	}))
	defer stalling.Close()
	defer close(done) // LIFO: runs before stalling.Close()
	healthy := httptest.NewServer(workerHandler())
	defer healthy.Close()

	cfg := fastCfg(stalling.URL, healthy.URL)
	cfg.LeaseTTL = 100 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want, _ := runStudy(t, st, dir, "serial.ckpt", nil)

	expiredBefore := obs.NewCounter("fleet.lease_expired_total").Value()
	got, _ := runStudy(t, st, dir, "fleet.ckpt", c.Dispatch)
	if got != want {
		t.Fatalf("output with stalling worker differs from serial:\n--- serial\n%s\n--- fleet\n%s", want, got)
	}
	if obs.NewCounter("fleet.lease_expired_total").Value() <= expiredBefore {
		t.Fatalf("stalled shard did not register a lease expiry")
	}
}

// TestFleetHedgesStragglers: with hedging enabled, a straggling primary is
// raced by a second attempt on another worker; the fast result wins and the
// straggler is canceled, so the study finishes long before the straggler
// would have.
func TestFleetHedgesStragglers(t *testing.T) {
	st := tinyStudy(t)
	const stall = 30 * time.Second
	done := make(chan struct{}) // unblocks stragglers at test end
	straggler := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(stall):
			workerHandler()(w, r)
		case <-r.Context().Done(): // canceled by first-result-wins
		case <-done:
		}
	}))
	defer straggler.Close()
	defer close(done) // LIFO: runs before straggler.Close()
	fast := httptest.NewServer(workerHandler())
	defer fast.Close()

	cfg := fastCfg(straggler.URL, fast.URL)
	cfg.ShardSize = 64 // one shard: its primary may land on the straggler
	cfg.HedgeAfter = 20 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want, _ := runStudy(t, st, dir, "serial.ckpt", nil)

	hedgesBefore := obs.NewCounter("fleet.hedges_total").Value()
	start := time.Now()
	got, _ := runStudy(t, st, dir, "fleet.ckpt", c.Dispatch)
	if elapsed := time.Since(start); elapsed > stall/2 {
		t.Fatalf("hedging did not rescue the straggler: study took %v", elapsed)
	}
	if got != want {
		t.Fatalf("hedged output differs from serial:\n--- serial\n%s\n--- fleet\n%s", want, got)
	}
	if obs.NewCounter("fleet.hedges_total").Value() <= hedgesBefore {
		t.Fatalf("straggling primary did not register a hedge")
	}
}

// TestFleetBreakerIsolatesAndReadmits: a worker that keeps erroring is
// made suspect (no more shards), and once it recovers, its probe shard
// readmits it.
func TestFleetBreakerIsolatesAndReadmits(t *testing.T) {
	st := tinyStudy(t)
	var broken atomic.Bool
	broken.Store(true)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			writeWorkerErr(w, http.StatusServiceUnavailable, "unavailable", "worker down for maintenance")
			return
		}
		workerHandler()(w, r)
	}))
	defer flaky.Close()
	healthy := httptest.NewServer(workerHandler())
	defer healthy.Close()

	cfg := fastCfg(flaky.URL, healthy.URL)
	cfg.BreakerThreshold = 1
	cfg.BreakerCooldown = 30 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want, _ := runStudy(t, st, dir, "serial.ckpt", nil)
	got, _ := runStudy(t, st, dir, "fleet1.ckpt", c.Dispatch)
	if got != want {
		t.Fatalf("output with broken worker differs from serial")
	}
	if st := c.m.States()[flaky.URL]; st != StateSuspect {
		t.Fatalf("erroring worker's membership state = %v, want suspect", st)
	}

	// Recovery: after the cooldown, the next study's probe shard should
	// readmit the worker.
	broken.Store(false)
	time.Sleep(2 * cfg.BreakerCooldown)
	got, _ = runStudy(t, st, dir, "fleet2.ckpt", c.Dispatch)
	if got != want {
		t.Fatalf("output after worker recovery differs from serial")
	}
	if st := c.m.States()[flaky.URL]; st != StateLive {
		t.Fatalf("recovered worker's membership state = %v, want live", st)
	}
}

// TestFleetPermanentRejectionFallsBackWithoutRetry: a worker that rejects
// the shard as malformed (4xx) must not be retried — the candidates fall
// back to local evaluation immediately.
func TestFleetPermanentRejectionFallsBackWithoutRetry(t *testing.T) {
	st := tinyStudy(t)
	var requests atomic.Int64
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		writeWorkerErr(w, http.StatusUnprocessableEntity, "invalid-config", "shard rejected")
	}))
	defer rejecting.Close()

	cfg := fastCfg(rejecting.URL)
	cfg.ShardSize = 64 // a single shard, so the request count is exact
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want, _ := runStudy(t, st, dir, "serial.ckpt", nil)
	got, _ := runStudy(t, st, dir, "fleet.ckpt", c.Dispatch)
	if got != want {
		t.Fatalf("output after permanent rejection differs from serial")
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("permanently rejected shard was sent %d times, want 1", n)
	}
}

// TestNewValidates: worker URLs are normalized, an empty one is rejected,
// and an empty seed is a coordinator waiting for registrations.
func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Workers: []string{"w1:8080", " / "}}); !errors.Is(err, guard.ErrInvalidConfig) {
		t.Fatalf("empty worker URL: err = %v, want invalid-config", err)
	}
	c, err := New(Config{})
	if err != nil {
		t.Fatalf("New with no workers: %v", err)
	}
	if ws := c.Workers(); len(ws) != 0 {
		t.Fatalf("empty seed: workers = %v, want none", ws)
	}
	c, err = New(Config{Workers: []string{"host1:8080/", "http://host2:9090"}})
	if err != nil {
		t.Fatal(err)
	}
	ws := c.Workers()
	if ws[0] != "http://host1:8080" || ws[1] != "http://host2:9090" {
		t.Fatalf("worker URLs not normalized: %v", ws)
	}
}

// TestFleetProbeSlotReleasedOnRejection pins the probe-slot contract end to
// end, with heartbeats off (the dse -fleet configuration): a lone worker
// trips on a 503, answers its probe shard with a permanent 422, and is
// healthy from then on. The rejected probe must release the slot — the
// worker keeps getting probe shards until one succeeds and readmits it,
// instead of being stranded suspect for the life of the process.
func TestFleetProbeSlotReleasedOnRejection(t *testing.T) {
	st := tinyStudy(t)
	var requests atomic.Int64
	w := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch requests.Add(1) {
		case 1:
			writeWorkerErr(w, http.StatusServiceUnavailable, "unavailable", "worker restarting")
		case 2:
			writeWorkerErr(w, http.StatusUnprocessableEntity, "invalid-config", "shard rejected")
		default:
			workerHandler()(w, r)
		}
	}))
	defer w.Close()

	cfg := fastCfg(w.URL)
	cfg.ShardSize = 64 // one shard per study: one request per attempt
	cfg.BreakerThreshold = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := t.TempDir()
	want, _ := runStudy(t, st, dir, "serial.ckpt", nil)
	study := func(name string) {
		t.Helper()
		time.Sleep(2 * cfg.BreakerCooldown)
		if got, _ := runStudy(t, st, dir, name, c.Dispatch); got != want {
			t.Fatalf("%s: output differs from serial", name)
		}
	}

	// Trip on the 503, then let probe shards run until the 422 lands.
	for i := 0; requests.Load() < 2; i++ {
		if i == 10 {
			t.Fatalf("worker saw %d requests after %d studies, want the 503 and the 422 probe", requests.Load(), i)
		}
		study(fmt.Sprintf("trip%d.ckpt", i))
	}
	if st := c.m.States()[w.URL]; st != StateSuspect {
		t.Fatalf("after the rejected probe: %v, want suspect", st)
	}
	before := requests.Load()
	for i := 0; i < 3; i++ {
		study(fmt.Sprintf("after%d.ckpt", i))
	}
	if n := requests.Load() - before; n == 0 {
		t.Fatal("rejected probe leaked the probe slot: the worker received 0 requests in three more studies")
	}
	if st := c.m.States()[w.URL]; st != StateLive {
		t.Fatalf("healthy worker = %v after three more studies, want live", st)
	}
}

func TestMetricName(t *testing.T) {
	cases := map[string]string{
		"http://10.0.0.7:8080":    "10.0.0.7_8080",
		"https://w1.example.com/": "w1.example.com_",
		"host:1234":               "host_1234",
	}
	for in, want := range cases {
		if got := metricName(in); got != want {
			t.Errorf("metricName(%q) = %q, want %q", in, got, want)
		}
	}
}
