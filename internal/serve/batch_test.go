package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"neurometer/internal/guard"
	"neurometer/internal/workloads"
)

// The simulate-batch wire contract: one prepared workload across many
// candidate configs, per-candidate failures isolated inside a 200, and every
// successful entry identical to what the single-candidate endpoint returns
// for the same config.

func TestSimulateBatchMatchesSingleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, _, batch := doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate-batch",
		`{"workload":"resnet50","batch":8,"configs":[{"preset":"tpuv1"},{"preset":"tpuv2"},{"preset":"eyeriss"}]}`)
	if status != 200 {
		t.Fatalf("simulate-batch: %d %v", status, batch)
	}
	if failed, _ := batch["failed"].(float64); failed != 0 {
		t.Fatalf("failed = %v, want 0", batch["failed"])
	}
	entries, _ := batch["results"].([]any)
	if len(entries) != 3 {
		t.Fatalf("got %d results, want 3", len(entries))
	}
	for i, preset := range []string{"tpuv1", "tpuv2", "eyeriss"} {
		status, _, single := doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate",
			`{"preset":"`+preset+`","workload":"resnet50","batch":8}`)
		if status != 200 {
			t.Fatalf("simulate %s: %d %v", preset, status, single)
		}
		entry, _ := entries[i].(map[string]any)
		got, _ := entry["result"].(map[string]any)
		if !reflect.DeepEqual(got, single) {
			t.Errorf("batch entry %d (%s) differs from single-candidate response:\nbatch:  %v\nsingle: %v",
				i, preset, got, single)
		}
	}
}

func TestSimulateBatchIsolatesCandidateFailures(t *testing.T) {
	defer guard.DisarmAll()
	_, ts := newTestServer(t, Config{})
	alexnet, err := workloads.ByName("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	// Candidate 1 fails in each case: its config does not build, its chip
	// has no tensor units, or a fault armed partway through its layer walk
	// (the site's first len(alexnet.Layers) hits are candidate 0's) fires
	// once as an error or a panic.
	midCandidate1 := guard.Fault{Skip: len(alexnet.Layers) + 3, Count: 1}
	layerErr, layerPanic := midCandidate1, midCandidate1
	layerErr.Err = guard.Infeasible("injected layer fault")
	layerPanic.Panic = true
	const tuLess = `{"config":{"name":"rt","tech_nm":28,"clock_hz":700e6,"tx":1,"ty":1,"core":{"num_rts":4,"rt_inputs":1024,"tu_data_type":"int8","mem":[{"name":"spad","capacity_bytes":8388608}]}}}`
	const twoPresets = `{"workload":"alexnet","batch":4,"configs":[{"preset":"tpuv1"},{"preset":"tpuv2"},{"preset":"tpuv1"}]}`
	for _, tc := range []struct {
		name, body string
		fault      *guard.Fault // armed at perfsim.layer
		wantKind   string
		wantErr    string // a substring of the failed entry's error
	}{
		{"unknown preset", `{"workload":"alexnet","batch":4,"configs":[{"preset":"tpuv1"},{"preset":"no-such-chip"},{"preset":"tpuv2"}]}`, nil, "invalid-config", "no-such-chip"},
		{"chip without tensor units", `{"workload":"alexnet","batch":4,"configs":[{"preset":"tpuv1"},` + tuLess + `,{"preset":"tpuv2"}]}`, nil, "invalid-config", "no tensor units"},
		{"layer fault mid-request", twoPresets, &layerErr, "infeasible", "injected layer fault"},
		{"layer panic mid-request", twoPresets, &layerPanic, "panic", ""},
	} {
		if tc.fault != nil {
			guard.Arm("perfsim.layer", *tc.fault)
		}
		status, _, body := doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate-batch", tc.body)
		guard.DisarmAll()
		if status != 200 {
			t.Fatalf("%s: mixed batch must still be 200: %d %v", tc.name, status, body)
		}
		if failed, _ := body["failed"].(float64); failed != 1 {
			t.Fatalf("%s: failed = %v, want 1", tc.name, body["failed"])
		}
		entries, _ := body["results"].([]any)
		if len(entries) != 3 {
			t.Fatalf("%s: got %d results, want 3", tc.name, len(entries))
		}
		bad, _ := entries[1].(map[string]any)
		if msg, _ := bad["error"].(string); bad["kind"] != tc.wantKind || bad["result"] != nil || !strings.Contains(msg, tc.wantErr) {
			t.Fatalf("%s: failed entry = %v, want kind=%s, an error naming %q and no result", tc.name, bad, tc.wantKind, tc.wantErr)
		}
		for _, i := range []int{0, 2} {
			entry, _ := entries[i].(map[string]any)
			res, _ := entry["result"].(map[string]any)
			if fps, _ := res["fps"].(float64); fps <= 0 {
				t.Fatalf("%s: entry %d fps = %v, want > 0 (neighbor of a failed candidate)", tc.name, i, entry)
			}
		}
	}
}

// TestSimulateBatchCtxCancel cancels a simulate-batch request while its
// first candidate simulates: the whole call fails with the classified
// canceled error, not with one failed entry.
func TestSimulateBatchCtxCancel(t *testing.T) {
	defer guard.DisarmAll()
	s := New(Config{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	guard.Arm("perfsim.layer", guard.Fault{Skip: 2, Count: 1, OnHit: cancel})
	req := httptest.NewRequest("POST", "/v1/perfsim/simulate-batch",
		strings.NewReader(`{"workload":"alexnet","batch":4,"configs":[{"preset":"tpuv1"},{"preset":"tpuv2"}]}`)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var body apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != 499 || body.Kind != "canceled" {
		t.Fatalf("canceled simulate-batch: status %d, body %s; want 499 kind=canceled", rec.Code, rec.Body)
	}
}

func TestSimulateBatchRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for name, body := range map[string]string{
		"no configs":       `{"workload":"alexnet","batch":4,"configs":[]}`,
		"unknown workload": `{"workload":"gpt7","batch":4,"configs":[{"preset":"tpuv1"}]}`,
		"negative batch":   `{"workload":"alexnet","batch":-1,"configs":[{"preset":"tpuv1"}]}`,
	} {
		status, _, resp := doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate-batch", body)
		if status != 400 || resp["kind"] != "invalid-config" {
			t.Errorf("%s: %d %v, want 400 invalid-config", name, status, resp)
		}
	}

	// One config past the documented bound.
	cfgs := make([]string, maxBatchConfigs+1)
	for i := range cfgs {
		cfgs[i] = `{"preset":"tpuv1"}`
	}
	over := `{"workload":"alexnet","batch":4,"configs":[` + strings.Join(cfgs, ",") + `]}`
	if !json.Valid([]byte(over)) {
		t.Fatal("test body is not valid JSON")
	}
	status, _, resp := doJSON(t, "POST", ts.URL+"/v1/perfsim/simulate-batch", over)
	if status != 400 || resp["kind"] != "invalid-config" {
		t.Fatalf("oversized config list: %d %v, want 400 invalid-config", status, resp)
	}
}
