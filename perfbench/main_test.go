package main

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"math/rand"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"neurometer/internal/serve"
)

// spec is the part of BENCHMARK.json the harness must agree with.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name, Unit string
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	var declared, built []string
	for _, w := range readSpec(t).Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		built = append(built, w.name)
	}
	sort.Strings(declared)
	sort.Strings(built)
	if !slices.Equal(declared, built) {
		t.Fatalf("BENCHMARK.json workloads %v, harness %v", declared, built)
	}
}

// TestMetricsMatchBenchmarkJSON runs a short store-warm run in each mode
// and checks that it reports exactly the declared metrics, in their units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	for _, tc := range []struct {
		trace bool
		want  []specMetric
	}{{false, s.EndToEnd}, {true, s.PerLayer}} {
		cfg := config{workload: "store-warm", seed: 1, window: 400 * time.Millisecond, trace: tc.trace, out: t.TempDir(), reps: 1}
		out, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", tc.trace, out.Correct, out.Attempted, out.Failed)
		}
		if len(out.Metrics) != len(tc.want) {
			t.Errorf("trace=%v: %d metrics, BENCHMARK.json declares %d", tc.trace, len(out.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := out.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s = %+v (present %v), want unit %q", tc.trace, m.Name, got, ok, m.Unit)
			}
		}
	}
}

func TestCorruptDigestFailsOp(t *testing.T) {
	inst, err := setupStudyWarm(context.Background(), config{out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if win := measure(inst, 1, 0, nil); win.attempted != 1 || win.failed != 0 {
		t.Fatalf("intact reference: attempted=%d failed=%d", win.attempted, win.failed)
	}
	inst.(*studyWarm).ref = "0000000000000000"
	win := measure(inst, 1, 0, nil)
	if win.attempted != 1 || win.failed != 1 || len(win.ms) != 0 {
		t.Fatalf("corrupted reference: attempted=%d failed=%d timed=%d", win.attempted, win.failed, len(win.ms))
	}
}

func TestCheckResponse(t *testing.T) {
	rec := func(code int, body string) *httptest.ResponseRecorder {
		r := httptest.NewRecorder()
		r.WriteHeader(code)
		r.WriteString(body)
		return r
	}
	build := request{route: "chip_build", path: "/v1/chip/build"}
	batch := request{route: "simulate_batch", path: "/v1/perfsim/simulate-batch"}
	for _, tc := range []struct {
		name string
		r    request
		rec  *httptest.ResponseRecorder
		ok   bool
	}{
		{"ok", build, rec(200, `{"name":"x"}`), true},
		{"server error", build, rec(500, `{"error":"boom"}`), false},
		{"shed", build, rec(429, `{"error":"overloaded"}`), false},
		{"empty body", build, rec(200, ""), false},
		{"batch ok", batch, rec(200, `{"failed":0,"results":[{}]}`), true},
		{"batch candidate failed", batch, rec(200, `{"failed":1,"results":[{}]}`), false},
	} {
		if err := checkResponse(tc.r, tc.rec); (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {90, 3.7}, {100, 4}} {
		if got := percentile(v, tc.p); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}

// TestMixSequenceBalance checks that a daemon-mix sequence holds the route
// shares, the Fig. 10 cells and the batch-request sizes exactly.
func TestMixSequenceBalance(t *testing.T) {
	pool := []json.RawMessage{json.RawMessage(`{"name":"a"}`), json.RawMessage(`{"name":"b"}`), json.RawMessage(`{"name":"c"}`)}
	var cells []mixCell
	for _, m := range []string{"resnet", "inception", "nasnet"} {
		for _, b := range []int{1, 8, regimeLargeBatch} {
			cells = append(cells, mixCell{m, b})
		}
	}
	seq := mixSequence(rand.New(rand.NewSource(7)), pool, cells)
	routes := map[string]int{}
	simCells, batchCells, sizes := map[mixCell]int{}, map[mixCell]int{}, map[int]int{}
	for _, r := range seq {
		routes[r.route]++
		switch r.route {
		case "simulate":
			var req serve.SimulateRequest
			if err := json.Unmarshal(r.body, &req); err != nil {
				t.Fatal(err)
			}
			simCells[mixCell{req.Workload, req.Batch}]++
		case "simulate_batch":
			var req serve.SimulateBatchRequest
			if err := json.Unmarshal(r.body, &req); err != nil {
				t.Fatal(err)
			}
			batchCells[mixCell{req.Workload, req.Batch}]++
			sizes[len(req.Configs)]++
		}
	}
	n := requestsPerClient
	if want := map[string]int{"simulate": n * 60 / 100, "simulate_batch": n * 25 / 100, "chip_build": n * 15 / 100}; !maps.Equal(routes, want) {
		t.Errorf("routes %v, want %v", routes, want)
	}
	for _, c := range cells {
		if simCells[c] != routes["simulate"]/len(cells) || batchCells[c] != routes["simulate_batch"]/len(cells) {
			t.Errorf("cell %v: %d simulate, %d batch requests; want every cell equally often", c, simCells[c], batchCells[c])
		}
	}
	for k := minBatchConfigs; k <= maxBatchConfigs; k++ {
		if sizes[k] != routes["simulate_batch"]/(maxBatchConfigs-minBatchConfigs+1) {
			t.Errorf("batch size %d drawn %d times; sizes %v", k, sizes[k], sizes)
		}
	}
}
