package serve

import (
	"context"
	"testing"
	"time"

	"neurometer/internal/fleet"
	"neurometer/internal/guard"
)

// coordinatorServer builds a serve.Server in coordinator mode backed by a
// real fleet.Coordinator (no heartbeats — tests drive membership directly).
func coordinatorServer(t *testing.T, workers ...string) (*Server, *fleet.Coordinator, string) {
	t.Helper()
	coord, err := fleet.New(fleet.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	s, ts := newTestServer(t, Config{
		Dispatch:   coord.Dispatch,
		Membership: coord.Membership(),
	})
	return s, coord, ts.URL
}

func TestWorkerRegisterAndDrainEndpoints(t *testing.T) {
	_, coord, url := coordinatorServer(t, "http://seed:8080")

	// /readyz carries the membership summary in coordinator mode.
	status, _, body := doJSON(t, "GET", url+"/readyz", "")
	if status != 200 {
		t.Fatalf("readyz: %d", status)
	}
	fl, ok := body["fleet"].(map[string]any)
	if !ok {
		t.Fatalf("readyz has no fleet summary: %v", body)
	}
	if fl["workers_live"] != float64(1) {
		t.Fatalf("workers_live = %v, want 1", fl["workers_live"])
	}

	// A new worker registers: live, visible in /readyz.
	status, _, body = doJSON(t, "POST", url+"/v1/worker/register", `{"url":"http://joiner:8080"}`)
	if status != 200 || body["state"] != "live" {
		t.Fatalf("register: %d %v", status, body)
	}
	_, _, body = doJSON(t, "GET", url+"/readyz", "")
	if fl := body["fleet"].(map[string]any); fl["workers_live"] != float64(2) {
		t.Fatalf("workers_live after join = %v, want 2", fl["workers_live"])
	}

	// Drain moves it out of rotation; /readyz reflects the transition.
	status, _, body = doJSON(t, "POST", url+"/v1/worker/drain", `{"url":"http://joiner:8080"}`)
	if status != 200 || body["state"] != "draining" {
		t.Fatalf("drain: %d %v", status, body)
	}
	_, _, body = doJSON(t, "GET", url+"/readyz", "")
	fl = body["fleet"].(map[string]any)
	if fl["workers_live"] != float64(1) || fl["workers_draining"] != float64(1) {
		t.Fatalf("fleet summary after drain = %v, want 1 live 1 draining", fl)
	}
	if st := coord.Membership().States()["http://joiner:8080"]; st != fleet.StateDraining {
		t.Fatalf("membership state = %v, want draining", st)
	}

	// Draining an unknown worker is a 400 invalid-config.
	status, _, body = doJSON(t, "POST", url+"/v1/worker/drain", `{"url":"http://stranger:8080"}`)
	if status != 400 || body["kind"] != "invalid-config" {
		t.Fatalf("drain of unknown worker: %d %v, want 400 invalid-config", status, body)
	}
}

// TestMemberEndpointsRejectNonCoordinator: the endpoints are always mounted
// but a process without a membership table refuses them loudly.
func TestMemberEndpointsRejectNonCoordinator(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/worker/register", "/v1/worker/drain"} {
		status, _, body := doJSON(t, "POST", ts.URL+path, `{"url":"http://w:8080"}`)
		if status != 400 || body["kind"] != "invalid-config" {
			t.Fatalf("%s on non-coordinator: %d %v, want 400 invalid-config", path, status, body)
		}
	}
}

// TestRegisterFaultSite: an armed fleet.register fault fails the endpoint
// without touching the membership table.
func TestRegisterFaultSite(t *testing.T) {
	_, coord, url := coordinatorServer(t, "http://seed:8080")
	guard.Arm("fleet.register", guard.Fault{Err: guard.Unavailable("injected register fault"), Count: 1})
	defer guard.DisarmAll()

	status, _, body := doJSON(t, "POST", url+"/v1/worker/register", `{"url":"http://joiner:8080"}`)
	if status != 503 {
		t.Fatalf("register under injected fault: %d %v, want 503", status, body)
	}
	if _, known := coord.Membership().States()["http://joiner:8080"]; known {
		t.Fatal("failed registration must not touch the membership table")
	}
	// The fault is spent; the retry succeeds.
	status, _, _ = doJSON(t, "POST", url+"/v1/worker/register", `{"url":"http://joiner:8080"}`)
	if status != 200 {
		t.Fatalf("register after fault cleared: %d", status)
	}
}

// TestJoinLoopRegistersAndShutdownDrains: a worker configured with
// Join/Advertise announces itself to the coordinator at startup, and its
// Shutdown announces drain before the listener closes.
func TestJoinLoopRegistersAndShutdownDrains(t *testing.T) {
	_, coord, coordURL := coordinatorServer(t)

	worker := New(Config{
		Join:         coordURL,
		Advertise:    "http://worker-1:8080",
		JoinInterval: 20 * time.Millisecond,
	})

	// The zero State is live, so a bare map lookup cannot distinguish
	// "registered" from "unknown" — require the key to exist.
	waitLive := func(why string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			st, known := coord.Membership().States()["http://worker-1:8080"]
			if known && st == fleet.StateLive {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s; states = %v", why, coord.Membership().States())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitLive("worker never registered")

	// Drain-and-readmit: the periodic re-registration heals the drain.
	if _, err := coord.Membership().Drain(context.Background(), "http://worker-1:8080"); err != nil {
		t.Fatal(err)
	}
	waitLive("worker never readmitted by re-registration")

	// Shutdown announces drain to the coordinator.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := worker.Shutdown(ctx); err != nil {
		t.Fatalf("worker shutdown: %v", err)
	}
	if st := coord.Membership().States()["http://worker-1:8080"]; st != fleet.StateDraining {
		t.Fatalf("worker state after shutdown = %v, want draining", st)
	}
	// And the drain is final: the stopped join loop cannot re-register.
	time.Sleep(60 * time.Millisecond)
	if st := coord.Membership().States()["http://worker-1:8080"]; st != fleet.StateDraining {
		t.Fatalf("worker state %v after shutdown settled, want draining (no late re-registration)", st)
	}
}
