package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"neurometer/internal/apicfg"
	"neurometer/internal/chip"
	"neurometer/internal/perfsim"
	"neurometer/internal/workloads"
)

// The simulate routes answer from the server's prepared workloads. These
// tests pin that the answer is the one a fresh graph gives: every body is
// byte-identical to what the routes returned when each request rebuilt its
// workload with workloads.ByName and ran perfsim.SimulateCtx on it.

// serveDirect runs one request through the handler in process and returns
// its status and body.
func serveDirect(h http.Handler, method, path, body string) (int, []byte) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// freshSimulate is the reference answer for one simulate request: a fresh
// graph from workloads.ByName and a fresh chip, through SimulateCtx.
func freshSimulate(t *testing.T, workload, preset string, batch int, opt perfsim.Options) *SimulateResponse {
	t.Helper()
	g, err := workloads.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := apicfg.Preset(preset)
	if err != nil {
		t.Fatal(err)
	}
	c, err := chip.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := perfsim.SimulateCtx(context.Background(), c, g, batch, opt)
	if err != nil {
		t.Fatal(err)
	}
	e := c.Efficiency(res.AchievedTOPS*1e12, res.Activity)
	return &SimulateResponse{
		Chip:         c.Cfg.Name,
		Workload:     g.Name,
		Batch:        batch,
		FPS:          res.FPS,
		LatencyMS:    res.LatencySec * 1e3,
		AchievedTOPS: res.AchievedTOPS,
		Utilization:  res.Utilization,
		PowerW:       e.PowerW,
		TOPSPerWatt:  e.TOPSPerWatt,
		TOPSPerTCO:   e.TOPSPerTCO,
	}
}

// wireBytes encodes v as the server writes a response body.
func wireBytes(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

var identityPresets = []string{"tpuv1", "tpuv2", "eyeriss"}

// simulateBody is a /v1/perfsim/simulate request body; opt nil leaves the
// options out.
func simulateBody(workload, preset string, batch int, opt *perfsim.Options) string {
	b, _ := json.Marshal(SimulateRequest{ChipRequest: ChipRequest{Preset: preset}, Workload: workload, Batch: batch, Options: opt})
	return string(b)
}

// batchBody is a /v1/perfsim/simulate-batch request body over the
// identity presets.
func batchBody(workload string, batch int) string {
	req := SimulateBatchRequest{Workload: workload, Batch: batch}
	for _, p := range identityPresets {
		req.Configs = append(req.Configs, ChipRequest{Preset: p})
	}
	b, _ := json.Marshal(req)
	return string(b)
}

// freshBatch is the reference simulate-batch body for batchBody.
func freshBatch(t *testing.T, workload string, batch int) []byte {
	t.Helper()
	resp := SimulateBatchResponse{Batch: batch}
	for _, p := range identityPresets {
		r := freshSimulate(t, workload, p, batch, perfsim.DefaultOptions())
		resp.Workload = r.Workload
		resp.Results = append(resp.Results, SimulateBatchEntry{Result: r})
	}
	return wireBytes(t, resp)
}

func TestSimulateRoutesMatchFreshGraphs(t *testing.T) {
	s := New(Config{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	noOpt := perfsim.NoOptimizations()
	for _, names := range workloads.Names() {
		for _, name := range names {
			for _, batch := range []int{1, 8, 256} {
				for _, preset := range identityPresets {
					status, got := serveDirect(h, "POST", "/v1/perfsim/simulate", simulateBody(name, preset, batch, nil))
					want := wireBytes(t, freshSimulate(t, name, preset, batch, perfsim.DefaultOptions()))
					if status != http.StatusOK || !bytes.Equal(got, want) {
						t.Fatalf("simulate %s on %s at batch %d: status %d\n%s\nwant\n%s", name, preset, batch, status, got, want)
					}
				}
				status, got := serveDirect(h, "POST", "/v1/perfsim/simulate-batch", batchBody(name, batch))
				if want := freshBatch(t, name, batch); status != http.StatusOK || !bytes.Equal(got, want) {
					t.Fatalf("simulate-batch %s at batch %d: status %d\n%s\nwant\n%s", name, batch, status, got, want)
				}
			}
			status, got := serveDirect(h, "POST", "/v1/perfsim/simulate", simulateBody(name, "tpuv1", 3, &noOpt))
			if want := wireBytes(t, freshSimulate(t, name, "tpuv1", 3, noOpt)); status != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("simulate %s without optimizations: status %d\n%s\nwant\n%s", name, status, got, want)
			}
		}
	}

	// Aliases share one memo entry, and a second use reuses it.
	total := 0
	for _, names := range workloads.Names() {
		first, err := s.workloads.get(names[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if p, err := s.workloads.get(name); err != nil || p != first {
				t.Errorf("%s: prepared workload %p (%v), want %s's %p", name, p, err, names[0], first)
			}
		}
		total += len(names)
	}

	// An unknown workload is still a 400 on both routes, and is not stored.
	for _, req := range []struct{ path, body string }{
		{"/v1/perfsim/simulate", simulateBody("vgg", "tpuv1", 1, nil)},
		{"/v1/perfsim/simulate-batch", batchBody("vgg", 1)},
	} {
		status, body := serveDirect(h, "POST", req.path, req.body)
		if status != http.StatusBadRequest || !strings.Contains(string(body), `unknown model \"vgg\"`) {
			t.Errorf("%s with an unknown workload: status %d, body %s", req.path, status, body)
		}
	}
	if _, ok := s.workloads["vgg"]; ok || len(s.workloads) != total {
		t.Errorf("the memo holds %d names after an unknown request, want the %d bundled ones", len(s.workloads), total)
	}
}

// TestPreparedWorkloadsConcurrent sends every route from many goroutines
// to one server whose workloads are not yet prepared, so first uses race:
// every simulate body must still equal the fresh-graph reference, and each
// model ends up with one prepared workload. Run it under -race.
func TestPreparedWorkloadsConcurrent(t *testing.T) {
	s := New(Config{BuildLimit: 64, SimulateLimit: 64, QueueDepth: 256, AdmissionTimeout: time.Minute})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	groups := workloads.Names()
	type call struct {
		method, path, body string
		want               []byte // nil: any 2xx
	}
	var calls []call
	for _, names := range groups {
		for _, name := range names {
			calls = append(calls,
				call{"POST", "/v1/perfsim/simulate", simulateBody(name, "tpuv1", 4, nil),
					wireBytes(t, freshSimulate(t, name, "tpuv1", 4, perfsim.DefaultOptions()))},
				call{"POST", "/v1/perfsim/simulate-batch", batchBody(name, 2), freshBatch(t, name, 2)})
		}
	}
	calls = append(calls,
		call{"POST", "/v1/chip/build", `{"preset":"tpuv2"}`, nil},
		call{"POST", "/v1/dse/study", tinyStudyBody(""), nil},
		call{"GET", "/healthz", "", nil},
		call{"GET", "/readyz", "", nil},
		call{"GET", "/metricz", "", nil})

	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range calls {
				c := calls[(j+w*7)%len(calls)] // each goroutine starts elsewhere
				status, got := serveDirect(h, c.method, c.path, c.body)
				if status/100 != 2 || (c.want != nil && !bytes.Equal(got, c.want)) {
					t.Errorf("goroutine %d: %s %s: status %d\n%s", w, c.method, c.path, status, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	for _, names := range groups {
		first, _ := s.workloads.get(names[0])
		for _, name := range names[1:] {
			if p, _ := s.workloads.get(name); p != first {
				t.Errorf("%s and %s hold two prepared workloads", name, names[0])
			}
		}
	}
}
