package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"neurometer/internal/dse"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/rstore"
)

// TestStudyJobLifecycle submits an async study, polls it to completion, and
// checks idempotent resubmission returns the same job.
func TestStudyJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, _, body := doJSON(t, "POST", ts.URL+"/v1/dse/study", tinyStudyBody(""))
	if status != 202 {
		t.Fatalf("submit: %d %v, want 202", status, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("submit returned no job id: %v", body)
	}

	// Resubmitting the identical spec is idempotent: same id, no new job.
	status, _, body = doJSON(t, "POST", ts.URL+"/v1/dse/study", tinyStudyBody(""))
	if status != 202 || body["id"] != id {
		t.Fatalf("resubmit: %d id=%v, want 202 id=%s", status, body["id"], id)
	}

	var final map[string]any
	waitFor(t, 30*time.Second, func() bool {
		_, _, final = doJSON(t, "GET", ts.URL+"/v1/dse/study/"+id, "")
		st, _ := final["state"].(string)
		return st == JobDone || st == JobFailed
	})
	if final["state"] != JobDone {
		t.Fatalf("job finished as %v: %v", final["state"], final)
	}
	csv, _ := final["csv"].(string)
	if !strings.HasPrefix(csv, "point,") {
		t.Fatalf("done job has no CSV: %v", final)
	}
	if final["rows"] == nil {
		t.Fatal("done job has no rows")
	}

	// Unknown ids map to the taxonomy, not a panic or a 500.
	status, _, body = doJSON(t, "GET", ts.URL+"/v1/dse/study/nope", "")
	if status != 400 || body["kind"] != "invalid-config" {
		t.Fatalf("unknown id: %d %v", status, body)
	}
}

// Two studies whose latency bounds round to the same millisecond are
// different studies, so they get different job IDs: the second is never
// answered with the first one's rows.
func TestStudyJobIDsSeparateCloseLatencyBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ids := map[string]string{}
	for _, bound := range []string{"9.9", "10.1"} {
		status, _, body := doJSON(t, "POST", ts.URL+"/v1/dse/study", `{"latency_bound_ms":`+bound+`,"models":["alexnet"],"x_choices":[8,64],"n_choices":[2,4],"max_tiles":32}`)
		id, _ := body["id"].(string)
		if status != 202 || id == "" {
			t.Fatalf("submit at %s ms: %d %v", bound, status, body)
		}
		if prev, ok := ids[id]; ok {
			t.Fatalf("latency bounds %s ms and %s ms share job %s", prev, bound, id)
		}
		ids[id] = bound
	}
}

// A study whose design-space choices repeat a value is a 400, as is one
// that still sends the removed "full" field.
func TestStudyRejectsMalformedRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"batch":8,"models":["alexnet"],"x_choices":[64,64],"n_choices":[2,4],"max_tiles":32}`,
		`{"batch":8,"models":["alexnet"],"x_choices":[8,64],"n_choices":[0,2],"max_tiles":32}`,
		tinyStudyBody(`"full":true`),
	} {
		status, _, resp := doJSON(t, "POST", ts.URL+"/v1/dse/study", body)
		if status != 400 || resp["kind"] != "invalid-config" {
			t.Errorf("%s: %d %v, want 400 invalid-config", body, status, resp)
		}
	}
}

// TestStudyJobQueueBound checks MaxQueuedJobs sheds excess submissions.
func TestStudyJobQueueBound(t *testing.T) {
	defer guard.DisarmAll()
	_, ts := newTestServer(t, Config{StudyLimit: 1, MaxQueuedJobs: 1})

	// Park the single run slot on a slow study (the delay is ctx-aware, so
	// the cleanup drain cuts it short).
	guard.Arm("dse.candidate", guard.Fault{Delay: 30 * time.Second, Count: 1})
	if status, _, _ := doJSON(t, "POST", ts.URL+"/v1/dse/study", tinyStudyBody("")); status != 202 {
		t.Fatalf("first submit: %d", status)
	}
	// A different spec (same constraints, different batch) queues (1 queued
	// job allowed)…
	if status, _, _ := doJSON(t, "POST", ts.URL+"/v1/dse/study", `{"batch":4,"models":["alexnet"],"x_choices":[8,64],"n_choices":[2,4],"max_tiles":32}`); status != 202 {
		t.Fatalf("second submit: %d", status)
	}
	// …and a third distinct spec sheds with 429 + Retry-After.
	status, hdr, body := doJSON(t, "POST", ts.URL+"/v1/dse/study", `{"batch":2,"models":["alexnet"],"x_choices":[8,64],"n_choices":[2,4],"max_tiles":32}`)
	if status != 429 {
		t.Fatalf("third submit: %d %v, want 429", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed study without Retry-After")
	}
}

// TestJobDrainRestartResume is the crash-safety acceptance test: a study
// job is interrupted mid-run by Shutdown (the SIGTERM path), and the same
// study resubmitted to a fresh Server over the same result store directory
// completes to a byte-identical result. The rows the first server finished
// come back as store hits; only the rest are simulated.
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
	status, _, ref := doJSON(t, "POST", tsRef.URL+"/v1/dse/study", tinyStudyBody(`"wait":true`))
	if status != 200 || ref["state"] != JobDone {
		t.Fatalf("reference run: %d %v", status, ref)
	}
	wantCSV, _ := ref["csv"].(string)
	wantID, _ := ref["id"].(string)
	if wantCSV == "" {
		t.Fatal("reference run produced no CSV")
	}

	// First incarnation: submit async, then drain once the third candidate
	// is reached. The armed hook parks that candidate until the drain is
	// underway and its context cancellation has landed, so the pool stops
	// deterministically with two candidates stored.
	s1 := New(Config{Workers: 1, Results: openStore()})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	reached := make(chan struct{})
	var once sync.Once
	guard.Arm("dse.candidate", guard.Fault{
		Skip: 2, Count: 1,
		OnHit: func() {
			once.Do(func() { close(reached) })
			<-s1.draining                      // park until the SIGTERM-equivalent drain begins
			time.Sleep(100 * time.Millisecond) // let the drain cancel the job context
		},
	})
	status, _, body := doJSON(t, "POST", ts1.URL+"/v1/dse/study", tinyStudyBody(""))
	if status != 202 {
		t.Fatalf("submit: %d %v", status, body)
	}
	id, _ := body["id"].(string)
	if id != wantID {
		t.Fatalf("job id %q differs from reference %q — fingerprint identity broken", id, wantID)
	}

	<-reached
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	guard.DisarmAll()

	if j, ok := s1.jobs.get(id); !ok {
		t.Fatal("job vanished during drain")
	} else if st := j.status(); st.State != JobInterrupted {
		t.Fatalf("job state after drain = %q, want %q", st.State, JobInterrupted)
	}

	// Second incarnation: a fresh server over the same store directory,
	// same spec. The synchronous resubmission reruns the study and must
	// reproduce the reference output byte for byte, serving the two rows
	// the first incarnation finished from the store.
	hitsBefore := obs.Default().Snapshot().Counters["dse.candidates_from_store"]
	_, ts2 := newTestServer(t, Config{Workers: 1, Results: openStore()})
	status, _, body = doJSON(t, "POST", ts2.URL+"/v1/dse/study", tinyStudyBody(`"wait":true`))
	if status != 200 || body["state"] != JobDone {
		t.Fatalf("rerun: %d %v", status, body)
	}
	if body["id"] != id {
		t.Fatalf("rerun job id %v, want %s", body["id"], id)
	}
	if got, _ := body["csv"].(string); got != wantCSV {
		t.Fatalf("rerun output differs from uninterrupted run:\n got: %s\nwant: %s", got, wantCSV)
	}
	if d := obs.Default().Snapshot().Counters["dse.candidates_from_store"] - hitsBefore; d != 2 {
		t.Fatalf("rerun served %d candidates from the store, want 2", d)
	}
}

// TestSubmitWhileDrainingSheds: once Shutdown begins, study jobs are turned
// away instead of being accepted and immediately interrupted — and that
// includes resubmitting a job the drain itself interrupted, which must
// stay interrupted rather than restart on the canceled base context.
func TestSubmitWhileDrainingSheds(t *testing.T) {
	defer guard.DisarmAll()
	s := New(Config{})
	newStudy := func(batch int) *dse.Study {
		t.Helper()
		spec, err := StudyRequest{Batch: batch, Models: []string{"alexnet"},
			XChoices: []int{8, 64}, NChoices: []int{2, 4}, MaxTiles: 32}.spec()
		if err != nil {
			t.Fatal(err)
		}
		study, err := dse.NewStudy(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return study
	}

	// Park a job on its first candidate (the delay is ctx-aware, so the
	// drain cuts it short) and drain the server under it.
	guard.Arm("dse.candidate", guard.Fault{Delay: 30 * time.Second, Count: 1})
	parked, _, err := s.jobs.submit(newStudy(8), dse.Hardening{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := parked.status().State; st != JobInterrupted {
		t.Fatalf("parked job after drain = %q, want %q", st, JobInterrupted)
	}

	for _, batch := range []int{4, 8} { // a new study, then the interrupted one
		if _, _, err := s.jobs.submit(newStudy(batch), dse.Hardening{Workers: 1}); !errors.Is(err, ErrShed) {
			t.Fatalf("batch %d: submit during drain: got %v, want ErrShed", batch, err)
		} else if !strings.Contains(err.Error(), "draining") {
			t.Fatalf("batch %d: submit during drain: %v", batch, err)
		}
	}
	if st := parked.status().State; st != JobInterrupted {
		t.Fatalf("resubmitted job = %q, want it still %q", st, JobInterrupted)
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
				case 200, 202, 400, 422, 429:
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
