package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"neurometer/internal/dse"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/rstore"
)

// directStudyCSV runs body's study outside the server, as NewStudy + Run
// with default hardening, and returns its CSV.
func directStudyCSV(t *testing.T, body string) string {
	t.Helper()
	var req StudyRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := req.spec()
	if err != nil {
		t.Fatal(err)
	}
	study, err := dse.NewStudy(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := study.Run(context.Background(), dse.Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	return dse.RuntimeRowsCSV(rows)
}

// TestStudyAnswersInRequest: POST /v1/dse/study answers 200 with the
// study's rows, and its CSV is byte for byte the CSV of the same study run
// directly. GET on a study ID is not routed.
func TestStudyAnswersInRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{tinyStudyBody(""), `{"regime":"b-medium"}`} {
		status, _, resp := doJSON(t, "POST", ts.URL+"/v1/dse/study", body)
		if status != 200 {
			t.Fatalf("%s: %d %v, want 200", body, status, resp)
		}
		rows, _ := resp["rows"].([]any)
		if n, _ := resp["candidates"].(float64); len(rows) == 0 || int(n) < len(rows) {
			t.Fatalf("%s: %d rows of %v candidates", body, len(rows), resp["candidates"])
		}
		if got, want := resp["csv"], directStudyCSV(t, body); got != want {
			t.Fatalf("%s: served CSV differs from a direct run:\n got: %v\nwant: %s", body, got, want)
		}
	}
	if status, _, _ := doJSON(t, "GET", ts.URL+"/v1/dse/study/8c6f0a1b2c3d4e5f", ""); status != http.StatusNotFound {
		t.Fatalf("GET of a study id: %d, want 404", status)
	}
}

// overCapStudyBody asks for 64 X choices × 8 N choices × 9 grid shapes =
// 4,608 design points, more than a study may enumerate.
func overCapStudyBody() string {
	xs := make([]string, 64)
	for i := range xs {
		xs[i] = strconv.Itoa(4 + i)
	}
	return `{"batch":8,"x_choices":[` + strings.Join(xs, ",") + `],"n_choices":[1,2,3,4,5,6,7,8],"max_tiles":256}`
}

// A study whose design-space choices repeat a value is a 400, as is one
// over the point cap, and one that still sends a removed field ("full",
// "wait", "workers", "candidate_timeout_ms" or "retries").
func TestStudyRejectsMalformedRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := obs.Default().Snapshot().Counters["dse.candidates_enumerated"]
	for _, body := range []string{
		`{"batch":8,"models":["alexnet"],"x_choices":[64,64],"n_choices":[2,4],"max_tiles":32}`,
		`{"batch":8,"models":["alexnet"],"x_choices":[8,64],"n_choices":[0,2],"max_tiles":32}`,
		`{"latency_bound_ms":-10,"models":["alexnet"],"x_choices":[8,64],"n_choices":[2,4],"max_tiles":32}`,
		`{"batch":8,"models":["alexnet"],"x_choices":[8,64],"n_choices":[2,4],"max_tiles":-1}`,
		overCapStudyBody(),
		tinyStudyBody(`"full":true`),
		tinyStudyBody(`"wait":true`),
		tinyStudyBody(`"workers":2`),
		tinyStudyBody(`"candidate_timeout_ms":30000`),
		tinyStudyBody(`"retries":2`),
	} {
		status, _, resp := doJSON(t, "POST", ts.URL+"/v1/dse/study", body)
		if status != 400 || resp["kind"] != "invalid-config" {
			t.Errorf("%.80s: %d %v, want 400 invalid-config", body, status, resp)
		}
	}
	if d := obs.Default().Snapshot().Counters["dse.candidates_enumerated"] - before; d != 0 {
		t.Fatalf("refused studies enumerated %d points", d)
	}
}

// parkStudy posts a tiny study and parks it on its first candidate, so it
// holds a dse.study slot until unpark is called; parked then receives its
// status. unpark is also registered as a cleanup, so a failed check cannot
// leave the study parked.
func parkStudy(t *testing.T, url string) (unpark func(), parked <-chan int) {
	t.Helper()
	reached, release := make(chan struct{}), make(chan struct{})
	unpark = sync.OnceFunc(func() { close(release) })
	t.Cleanup(unpark)
	guard.Arm("dse.candidate", guard.Fault{Count: 1, OnHit: func() {
		close(reached)
		<-release
	}})
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/dse/study", "application/json", strings.NewReader(tinyStudyBody("")))
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	select {
	case <-reached:
	case st := <-status:
		t.Fatalf("parked study answered %d before reaching a candidate", st)
	}
	return unpark, status
}

// TestStudyAdmissionSheds: while the one study slot is taken, another
// study sheds with 429 + Retry-After once the admission deadline passes,
// and the other routes keep serving; the parked study then finishes
// normally.
func TestStudyAdmissionSheds(t *testing.T) {
	defer guard.DisarmAll()
	_, ts := newTestServer(t, Config{StudyLimit: 1, AdmissionTimeout: 100 * time.Millisecond})
	unpark, parked := parkStudy(t, ts.URL)

	status, hdr, body := doJSON(t, "POST", ts.URL+"/v1/dse/study", `{"batch":4,"models":["alexnet"],"x_choices":[8,64],"n_choices":[2,4],"max_tiles":32}`)
	if status != 429 || body["kind"] != "shed" || hdr.Get("Retry-After") == "" {
		t.Fatalf("second study: %d %v (Retry-After %q), want 429 kind=shed with Retry-After", status, body, hdr.Get("Retry-After"))
	}
	if status, _, body := doJSON(t, "POST", ts.URL+"/v1/chip/build", `{"preset":"tpuv1"}`); status != 200 {
		t.Fatalf("build while a study runs: %d %v", status, body)
	}
	unpark()
	if status := <-parked; status != 200 {
		t.Fatalf("parked study: %d, want 200", status)
	}
}

// TestStudyValidatesBeforeAdmission: the study route checks a body before
// it waits for a slot. While a study holds the only slot, an over-cap body
// and a body with a repeated choice each get 400 well inside the admission
// deadline, a valid body still waits it out and sheds, and so does one
// whose own deadline passes first.
func TestStudyValidatesBeforeAdmission(t *testing.T) {
	defer guard.DisarmAll()
	const admission = 500 * time.Millisecond
	_, ts := newTestServer(t, Config{StudyLimit: 1, QueueDepth: 4, AdmissionTimeout: admission})
	unpark, parked := parkStudy(t, ts.URL)

	for _, body := range []string{
		overCapStudyBody(),
		`{"batch":8,"models":["alexnet"],"x_choices":[64,64],"n_choices":[2,4],"max_tiles":32}`,
	} {
		start := time.Now()
		status, _, resp := doJSON(t, "POST", ts.URL+"/v1/dse/study", body)
		if elapsed := time.Since(start); status != 400 || elapsed >= admission/2 {
			t.Errorf("%.60s: %d %v after %v, want 400 well inside %v", body, status, resp, elapsed, admission)
		}
	}
	valid := `{"batch":4,"models":["alexnet"],"x_choices":[8,64],"n_choices":[2,4],"max_tiles":32}`
	start := time.Now()
	status, _, resp := doJSON(t, "POST", ts.URL+"/v1/dse/study", valid)
	if status != 429 || resp["kind"] != "shed" || time.Since(start) < admission {
		t.Errorf("valid study: %d %v after %v, want 429 kind=shed after %v", status, resp, time.Since(start), admission)
	}
	status, _, resp = doJSON(t, "POST", ts.URL+"/v1/dse/study?timeout_ms=50", valid)
	if status != 429 || resp["kind"] != "shed" {
		t.Errorf("valid study with a 50 ms deadline: %d %v, want 429 kind=shed", status, resp)
	}
	unpark()
	if status := <-parked; status != 200 {
		t.Fatalf("parked study: %d, want 200", status)
	}
}

// TestJobDrainRestartResume is the crash-safety acceptance test: a study
// cut short by its request deadline keeps the candidates it finished in
// the result store, and the same study posted to a fresh Server over the
// same store directory (after the first one drains) answers byte-identical
// CSV, serving those candidates from the store and simulating the rest.
func TestJobDrainRestartResume(t *testing.T) {
	defer guard.DisarmAll()
	storeDir := t.TempDir()
	openStore := func() *rstore.Cache {
		st, err := rstore.OpenDisk(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		c := rstore.NewCache(st)
		t.Cleanup(func() { c.Close() })
		return c
	}

	// Reference: the same study run uninterrupted on an isolated server.
	_, tsRef := newTestServer(t, Config{})
	status, _, ref := doJSON(t, "POST", tsRef.URL+"/v1/dse/study", tinyStudyBody(""))
	wantCSV, _ := ref["csv"].(string)
	if status != 200 || wantCSV == "" {
		t.Fatalf("reference run: %d %v", status, ref)
	}

	// First server: the third candidate sleeps past the request deadline,
	// so the study stops with two candidates stored and answers 504.
	s1, ts1 := newTestServer(t, Config{Workers: 1, Results: openStore()})
	guard.Arm("dse.candidate", guard.Fault{Skip: 2, Count: 1, Delay: 30 * time.Second})
	status, _, body := doJSON(t, "POST", ts1.URL+"/v1/dse/study?timeout_ms=1000", tinyStudyBody(""))
	if status != http.StatusGatewayTimeout || body["kind"] != "timeout" {
		t.Fatalf("cut-short study: %d %v, want 504 kind=timeout", status, body)
	}
	guard.DisarmAll()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Second server over the same store directory, same body.
	hitsBefore := obs.Default().Snapshot().Counters["dse.candidates_from_store"]
	_, ts2 := newTestServer(t, Config{Workers: 1, Results: openStore()})
	status, _, body = doJSON(t, "POST", ts2.URL+"/v1/dse/study", tinyStudyBody(""))
	if status != 200 {
		t.Fatalf("rerun: %d %v", status, body)
	}
	if got, _ := body["csv"].(string); got != wantCSV {
		t.Fatalf("rerun output differs from uninterrupted run:\n got: %s\nwant: %s", got, wantCSV)
	}
	if d := obs.Default().Snapshot().Counters["dse.candidates_from_store"] - hitsBefore; d != 2 {
		t.Fatalf("rerun served %d candidates from the store, want 2", d)
	}
}

// TestConcurrentSoak hammers every endpoint at once — race-enabled in CI —
// and requires each response to be a documented status, never a hang or an
// undocumented 5xx.
func TestConcurrentSoak(t *testing.T) {
	_, ts := newTestServer(t, Config{
		BuildLimit:       2,
		SimulateLimit:    2,
		QueueDepth:       2,
		AdmissionTimeout: 200 * time.Millisecond,
	})

	reqs := []struct{ method, path, body string }{
		{"POST", "/v1/chip/build", `{"preset":"tpuv1"}`},
		{"POST", "/v1/chip/build", `{"preset":"tpuv2"}`},
		{"POST", "/v1/perfsim/simulate", `{"preset":"tpuv1","workload":"alexnet","batch":4}`},
		{"POST", "/v1/perfsim/simulate", `{"preset":"eyeriss","workload":"mobilenet"}`},
		{"POST", "/v1/dse/study", tinyStudyBody("")},
		{"GET", "/healthz", ""},
		{"GET", "/readyz", ""},
		{"GET", "/metricz", ""},
		{"POST", "/v1/chip/build", `{"preset":"bogus"}`},
	}
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, len(reqs)*rounds)
	for r := 0; r < rounds; r++ {
		for _, rq := range reqs {
			wg.Add(1)
			go func(method, path, body string) {
				defer wg.Done()
				status, _, _ := doJSON(t, method, ts.URL+path, body)
				switch status {
				case 200, 400, 422, 429:
				default:
					errs <- fmt.Errorf("%s %s: undocumented status %d", method, path, status)
				}
			}(rq.method, rq.path, rq.body)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
