package serve

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"neurometer/internal/guard"
)

// TestLoadShedding saturates a one-slot build endpoint that has no waiting
// room with an injected delay and asserts the overload contract: excess
// requests get 429 with a Retry-After header at once, before the admission
// deadline, and serve.shed_total counts every shed.
func TestLoadShedding(t *testing.T) {
	defer guard.DisarmAll()
	const admission = 400 * time.Millisecond
	_, ts := newTestServer(t, Config{
		BuildLimit:       1,
		QueueDepth:       -1,
		AdmissionTimeout: admission,
	})

	// Hold the single build slot for half a second. chip.build injects with
	// a nil ctx, so the delay runs to completion regardless of deadlines.
	hold := 500 * time.Millisecond
	guard.Arm("chip.build", guard.Fault{Delay: hold, Count: 1})

	start := time.Now()
	const extra = 4
	var wg sync.WaitGroup
	statuses := make([]int, 1+extra)
	retryAfter := make([]string, 1+extra)
	took := make([]time.Duration, 1+extra)
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i > 0 {
				// Let the slow request claim the slot first.
				time.Sleep(50 * time.Millisecond)
			}
			sent := time.Now()
			resp, err := http.Post(ts.URL+"/v1/chip/build", "application/json",
				strings.NewReader(`{"preset":"tpuv1"}`))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
			took[i] = time.Since(sent)
		}(i)
	}
	wg.Wait()

	shed := 0
	for i, st := range statuses {
		switch st {
		case 200:
		case 429:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("request %d: 429 without Retry-After", i)
			}
			// The waiting room (slots+queue = 1) was full while the slow
			// build held its ticket, so the shed was immediate: it did not
			// wait out the admission deadline.
			if took[i] >= admission {
				t.Errorf("request %d: 429 after %v, want it before the %v admission deadline", i, took[i], admission)
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, st)
		}
	}
	if shed == 0 {
		t.Fatal("no request was shed despite a saturated slot")
	}
	if elapsed := time.Since(start); elapsed > hold+2*time.Second {
		t.Fatalf("shedding took %v — requests hung instead of shedding", elapsed)
	}
	if mShed.Value() == 0 {
		t.Fatal("serve.shed_total did not count the sheds")
	}
}

// TestWatchdogDegradesAndRecovers drives 5 consecutive 5xx failures through
// the middleware and watches /readyz flip to 503 degraded on the fifth, then
// back to 200 after a success.
func TestWatchdogDegradesAndRecovers(t *testing.T) {
	defer guard.DisarmAll()
	_, ts := newTestServer(t, Config{})

	disarm := guard.Arm("chip.build", guard.Fault{Err: guard.NonFinite("peak_tops", 0)})
	for i := 0; i < 5; i++ {
		if status, _, _ := doJSON(t, "POST", ts.URL+"/v1/chip/build", `{"preset":"tpuv1"}`); status != 500 {
			t.Fatalf("faulted build %d: status %d, want 500", i, status)
		}
		if i == 3 {
			if status, _, body := doJSON(t, "GET", ts.URL+"/readyz", ""); status != 200 {
				t.Fatalf("readyz after 4 failures: %d %v, want 200 ready", status, body)
			}
		}
	}
	status, _, body := doJSON(t, "GET", ts.URL+"/readyz", "")
	if status != 503 || body["ready"] != false {
		t.Fatalf("readyz after consecutive failures: %d %v, want 503 degraded", status, body)
	}
	if reason, _ := body["reason"].(string); !strings.Contains(reason, "degraded") {
		t.Fatalf("readyz reason = %q, want degraded", body["reason"])
	}

	// Liveness is unaffected: the process can still recover on its own.
	if status, _, _ := doJSON(t, "GET", ts.URL+"/healthz", ""); status != 200 {
		t.Fatal("healthz went down with the watchdog — degraded must not mean dead")
	}

	disarm()
	if status, _, _ := doJSON(t, "POST", ts.URL+"/v1/chip/build", `{"preset":"tpuv1"}`); status != 200 {
		t.Fatal("build did not recover after disarm")
	}
	status, _, body = doJSON(t, "GET", ts.URL+"/readyz", "")
	if status != 200 || body["ready"] != true {
		t.Fatalf("readyz after recovery: %d %v, want 200 ready", status, body)
	}
}

// TestShedDoesNotTripWatchdog: 429s are the designed overload response, not
// failures — a shed storm must not mark the instance degraded. One parked
// build fills a waiting room with one slot and no queue, so every other
// build sheds at once.
func TestShedDoesNotTripWatchdog(t *testing.T) {
	defer guard.DisarmAll()
	s, ts := newTestServer(t, Config{BuildLimit: 1, QueueDepth: -1})
	reached, release := make(chan struct{}), make(chan struct{})
	unpark := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unpark)
	guard.Arm("chip.build", guard.Fault{Count: 1, OnHit: func() {
		close(reached)
		<-release
	}})
	parked := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/chip/build", "application/json", strings.NewReader(`{"preset":"tpuv1"}`))
		if err != nil {
			parked <- 0
			return
		}
		resp.Body.Close()
		parked <- resp.StatusCode
	}()
	select {
	case <-reached:
	case st := <-parked:
		t.Fatalf("parked build answered %d before reaching chip.build", st)
	}

	for i := 0; i < 2*degradedAfter; i++ {
		if status, _, body := doJSON(t, "POST", ts.URL+"/v1/chip/build", `{"preset":"tpuv1"}`); status != 429 {
			t.Fatalf("build %d behind the parked one: %d %v, want 429", i, status, body)
		}
	}
	if n := s.wd.consecutive.Load(); n != 0 || s.wd.isDegraded() {
		t.Fatalf("shedding fed the watchdog: %d consecutive failures, degraded %v", n, s.wd.isDegraded())
	}
	unpark()
	if status := <-parked; status != 200 {
		t.Fatalf("parked build: %d, want 200", status)
	}
}
