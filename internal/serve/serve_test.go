package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"neurometer/internal/guard"
	"neurometer/internal/invariants"
	"neurometer/internal/obs"
)

// newTestServer spins up a Server on an httptest listener and guarantees a
// bounded Shutdown at cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// doJSON issues a request and decodes the JSON response into a generic map.
func doJSON(t *testing.T, method, url, body string) (int, http.Header, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if len(bytes.TrimSpace(raw)) > 0 && json.Valid(raw) {
		json.Unmarshal(raw, &m)
	}
	return resp.StatusCode, resp.Header, m
}

// tinyStudyBody mirrors the dse package's tinySpec: a fast study that
// finishes in well under a second.
func tinyStudyBody(extra string) string {
	b := `{"batch":8,"models":["alexnet"],"x_choices":[8,64],"n_choices":[2,4],"max_tiles":32`
	if extra != "" {
		b += "," + extra
	}
	return b + "}"
}

func TestEndpointsHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, _, body := doJSON(t, "GET", ts.URL+"/healthz", "")
	if status != 200 {
		t.Fatalf("healthz: %d", status)
	}
	status, _, body = doJSON(t, "GET", ts.URL+"/readyz", "")
	if status != 200 || body["ready"] != true {
		t.Fatalf("readyz: %d %v", status, body)
	}

	status, _, body = doJSON(t, "POST", ts.URL+"/v1/chip/build", `{"preset":"tpuv1"}`)
	if status != 200 {
		t.Fatalf("build: %d %v", status, body)
	}

	status, _, body = doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate",
		`{"preset":"tpuv2","workload":"resnet50","batch":8}`)
	if status != 200 {
		t.Fatalf("simulate: %d %v", status, body)
	}
	if fps, _ := body["fps"].(float64); fps <= 0 {
		t.Fatalf("simulate fps = %v, want > 0", body["fps"])
	}

	// Validation failures map to the taxonomy, not to 500.
	status, _, body = doJSON(t, "POST", ts.URL+"/v1/chip/build", `{"preset":"tpuv9"}`)
	if status != 400 || body["kind"] != "invalid-config" {
		t.Fatalf("bad preset: %d %v", status, body)
	}
	status, _, body = doJSON(t, "POST", ts.URL+"/v1/chip/build", `{"preset":"tpuv1", "config":{`)
	if status != 400 {
		t.Fatalf("malformed JSON: %d %v", status, body)
	}
	status, _, body = doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate",
		`{"preset":"tpuv1","workload":"gpt7"}`)
	if status != 400 || body["kind"] != "invalid-config" {
		t.Fatalf("unknown workload: %d %v", status, body)
	}
}

func TestMetricz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/v1/chip/build", `{"preset":"tpuv1"}`)

	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "serve.requests_total") {
		t.Fatalf("metricz text missing serve.requests_total:\n%s", raw)
	}
	status, _, body := doJSON(t, "GET", ts.URL+"/metricz?format=json", "")
	if status != 200 || body["counters"] == nil {
		t.Fatalf("metricz json: %d %v", status, body)
	}
}

// TestMetriczFormats: ?format=text is the default text rendering, and a
// format that does not exist is a 400 naming the two that do, not a 200
// with text the scraper cannot parse.
func TestMetriczFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metricz?format=text")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(string(raw), "== metrics ==") {
		t.Fatalf("format=text: %d %q", resp.StatusCode, raw)
	}
	for _, format := range []string{"prom", "JSON", "xml"} {
		status, _, body := doJSON(t, "GET", ts.URL+"/metricz?format="+format, "")
		msg, _ := body["error"].(string)
		if status != 400 || body["kind"] != "invalid-config" ||
			!strings.Contains(msg, "text") || !strings.Contains(msg, "json") {
			t.Errorf("format=%s: %d %v, want 400 invalid-config naming text and json", format, status, body)
		}
	}
}

// TestMetriczRouteInstruments: after a real build, /metricz?format=json
// carries the route's request counter and latency histogram.
func TestMetriczRouteInstruments(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := obs.Default().Snapshot().Counters["serve.route.chip.build.requests_total"]
	if status, _, body := doJSON(t, "POST", ts.URL+"/v1/chip/build", `{"preset":"tpuv1"}`); status != 200 {
		t.Fatalf("build: %d %v", status, body)
	}
	status, _, body := doJSON(t, "GET", ts.URL+"/metricz?format=json", "")
	if status != 200 {
		t.Fatalf("metricz json: %d %v", status, body)
	}
	counters, _ := body["counters"].(map[string]any)
	if n, _ := counters["serve.route.chip.build.requests_total"].(float64); n < float64(before+1) {
		t.Errorf("serve.route.chip.build.requests_total = %v, want at least %d", n, before+1)
	}
	hists, _ := body["histograms"].(map[string]any)
	h, _ := hists["serve.route.chip.build.request_seconds"].(map[string]any)
	if n, _ := h["count"].(float64); n < 1 {
		t.Errorf("serve.route.chip.build.request_seconds = %v, want at least one observation", h)
	}
}

// TestFaultMatrix arms each injection site the serving layer sits above and
// asserts the wire contract: the guard kind maps to the documented status,
// the body carries the taxonomy, and — crucially — the server keeps serving
// healthy requests afterwards.
func TestFaultMatrix(t *testing.T) {
	defer guard.DisarmAll()
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name, site string
		fault      guard.Fault
		path, body string
		wantStatus int
		wantKind   string
	}{
		{
			name: "build panic recovers to 500", site: "chip.build",
			fault: guard.Fault{Panic: true},
			path:  "/v1/chip/build", body: `{"preset":"tpuv1"}`,
			wantStatus: 500, wantKind: "panic",
		},
		{
			name: "build non-finite maps to 500", site: "chip.build",
			fault: guard.Fault{Err: guard.NonFinite("peak_tops", 0)},
			path:  "/v1/chip/build", body: `{"preset":"tpuv1"}`,
			wantStatus: 500, wantKind: "non-finite",
		},
		{
			name: "simulate infeasible maps to 422", site: "perfsim.simulate",
			fault: guard.Fault{Err: guard.Infeasible("no feasible mapping")},
			path:  "/v1/perfsim/simulate", body: `{"preset":"tpuv1","workload":"alexnet"}`,
			wantStatus: 422, wantKind: "infeasible",
		},
		{
			name: "slow layer trips request deadline to 504", site: "perfsim.layer",
			fault: guard.Fault{Delay: 2 * time.Second},
			path:  "/v1/perfsim/simulate?timeout_ms=50", body: `{"preset":"tpuv1","workload":"alexnet"}`,
			wantStatus: 504, wantKind: "timeout",
		},
		{
			name: "study with every candidate failing maps to 422", site: "dse.candidate",
			fault: guard.Fault{Err: guard.Infeasible("injected")},
			path:  "/v1/dse/study", body: tinyStudyBody(""),
			wantStatus: 422, wantKind: "infeasible",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			disarm := guard.Arm(tc.site, tc.fault)
			defer disarm()
			status, _, body := doJSON(t, "POST", ts.URL+tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d (%v), want %d", status, body, tc.wantStatus)
			}
			if body["kind"] != tc.wantKind {
				t.Fatalf("kind = %v, want %q", body["kind"], tc.wantKind)
			}
			disarm()

			// The failure stayed contained: the next request succeeds.
			status, _, body = doJSON(t, "POST", ts.URL+"/v1/chip/build", `{"preset":"tpuv1"}`)
			if status != 200 {
				t.Fatalf("server stopped serving after fault: %d %v", status, body)
			}
		})
	}
}

// TestClientDisconnectMapsTo499 cancels the request from the client side
// mid-simulate and checks the taxonomy classifies it as canceled (the 499
// never reaches the wire — the client is gone — but the watchdog must not
// count it as a server failure).
func TestClientDisconnectMapsTo499(t *testing.T) {
	defer guard.DisarmAll()
	s, ts := newTestServer(t, Config{})

	released := make(chan struct{})
	guard.Arm("perfsim.layer", guard.Fault{Delay: 5 * time.Second, Count: 1, OnHit: func() { close(released) }})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/perfsim/simulate",
		strings.NewReader(`{"preset":"tpuv1","workload":"alexnet"}`))
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("expected client-side cancellation error")
	}
	<-released // the armed delay observed the cancellation

	// Wait for the handler to unwind, then check the canceled client was
	// not treated as a server failure: the watchdog counted nothing.
	waitFor(t, 2*time.Second, func() bool { return gInflight.Value() == 0 })
	if n := s.wd.consecutive.Load(); n != 0 {
		t.Fatalf("client disconnect fed the watchdog: %d consecutive failures", n)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}

// TestNoGoroutineLeakAcrossLifecycle runs requests (including a study)
// through a full server lifecycle and checks the goroutine count
// returns to its baseline after Shutdown.
func TestNoGoroutineLeakAcrossLifecycle(t *testing.T) {
	base := invariants.GoroutineBaseline()

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	client := &http.Client{}

	for i := 0; i < 4; i++ {
		resp, err := client.Post(ts.URL+"/v1/chip/build", "application/json",
			strings.NewReader(`{"preset":"tpuv1"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := client.Post(ts.URL+"/v1/dse/study", "application/json",
		strings.NewReader(tinyStudyBody("")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()
	client.CloseIdleConnections()

	invariants.RequireNoGoroutineLeak(t, base)
	invariants.RequireGaugesDrained(t)
}

// TestBodyTooLarge: a request body of 1 MiB + 1 byte is cut off with 413
// and kind=too-large, on every POST endpoint; a body of exactly 1 MiB is
// read to its end.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := func(n int) string {
		const frame = `{"preset":""}`
		return frame[:len(frame)-2] + strings.Repeat("x", n-len(frame)) + frame[len(frame)-2:]
	}
	big := body(1<<20 + 1)
	for _, ep := range []string{"/v1/chip/build", "/v1/perfsim/simulate", "/v1/perfsim/simulate-batch", "/v1/dse/study"} {
		status, _, resp := doJSON(t, "POST", ts.URL+ep, big)
		if status != http.StatusRequestEntityTooLarge || resp["kind"] != "too-large" {
			t.Errorf("%s oversized body: %d %v, want 413 kind=too-large", ep, status, resp)
		}
	}
	// A body at the bound is decoded: its unknown preset is a 400.
	if status, _, resp := doJSON(t, "POST", ts.URL+"/v1/chip/build", body(1<<20)); status != 400 || resp["kind"] != "invalid-config" {
		t.Errorf("1 MiB body: %d %v, want 400 kind=invalid-config", status, resp)
	}
	// A body within the bound still works.
	status, _, resp := doJSON(t, "POST", ts.URL+"/v1/chip/build", `{"preset":"tpuv1"}`)
	if status != 200 {
		t.Fatalf("small body after 413s: %d %v", status, resp)
	}
}

// TestContentTypeChecked: a POST that declares a non-JSON Content-Type is
// rejected with 415; an absent Content-Type is tolerated.
func TestContentTypeChecked(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req, err := http.NewRequest("POST", ts.URL+"/v1/chip/build", strings.NewReader("preset=tpuv1"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body)
	if resp.StatusCode != http.StatusUnsupportedMediaType || body["kind"] != "unsupported-media" {
		t.Fatalf("form post: %d %v, want 415 kind=unsupported-media", resp.StatusCode, body)
	}

	// JSON with a charset parameter is fine; so is no header at all
	// (doJSON never sets one and the suite's POSTs all pass).
	req, _ = http.NewRequest("POST", ts.URL+"/v1/chip/build", strings.NewReader(`{"preset":"tpuv1"}`))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("json with charset: %d", resp2.StatusCode)
	}
}

// TestRetryAfterJitterBand: the Retry-After hint stays inside
// [admission, admission+3] seconds, the admission deadline rounded up to a
// whole second (a client told to retry sooner than a slot can free would
// be shed again), and actually dithers.
func TestRetryAfterJitterBand(t *testing.T) {
	for _, tc := range []struct {
		admission time.Duration
		lo        int
	}{{2 * time.Second, 2}, {1500 * time.Millisecond, 2}} {
		s := New(Config{AdmissionTimeout: tc.admission})
		hi := tc.lo + retryAfterJitter
		seen := map[int]bool{}
		for i := 0; i < 200; i++ {
			secs, err := strconv.Atoi(s.retryAfter())
			if err != nil {
				t.Fatal(err)
			}
			if secs < tc.lo || secs > hi {
				t.Fatalf("admission %v: Retry-After %d outside [%d, %d]", tc.admission, secs, tc.lo, hi)
			}
			seen[secs] = true
		}
		s.Shutdown(context.Background())
		if len(seen) < 2 {
			t.Fatalf("admission %v: 200 draws produced %d distinct Retry-After values, want jitter", tc.admission, len(seen))
		}
	}
}

// TestRequestDeadlineNeverLoosened: ?timeout_ms= only tightens the 30 s
// request deadline. A value too large for a time.Duration in nanoseconds
// keeps the 30 s deadline instead of wrapping negative and dropping it;
// garbage and non-positive values keep it too.
func TestRequestDeadlineNeverLoosened(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	for _, tc := range []struct {
		query string
		want  time.Duration
	}{
		{"", 30 * time.Second},
		{"?timeout_ms=250", 250 * time.Millisecond},
		{"?timeout_ms=60000", 30 * time.Second},
		{"?timeout_ms=10000000000000", 30 * time.Second},
		{"?timeout_ms=9223372036854775807", 30 * time.Second},
		{"?timeout_ms=0", 30 * time.Second},
		{"?timeout_ms=-5", 30 * time.Second},
		{"?timeout_ms=soon", 30 * time.Second},
	} {
		ctx, cancel := s.requestContext(httptest.NewRequest("POST", "/v1/chip/build"+tc.query, nil))
		deadline, ok := ctx.Deadline()
		left := time.Until(deadline)
		cancel()
		if !ok || left > tc.want || left < tc.want-time.Second {
			t.Errorf("%q: deadline set %v, %v away; want %v", tc.query, ok, left, tc.want)
		}
	}
}
