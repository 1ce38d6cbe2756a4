package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// Concurrent increments must not lose updates (run under -race in CI).
func TestConcurrentCounterIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.concurrent")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestConcurrentHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.hist", []float64{1, 10, 100})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(w * 10)) // 0, 10, 20, 30
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot().Histograms["test.hist"]
	if s.Count != 4000 {
		t.Fatalf("count = %d, want 4000", s.Count)
	}
	if want := 1000.0*0 + 1000*10 + 1000*20 + 1000*30; s.Sum != want {
		t.Errorf("sum = %g, want %g", s.Sum, want)
	}
	if s.Min != 0 || s.Max != 30 {
		t.Errorf("min/max = %g/%g, want 0/30", s.Min, s.Max)
	}
	// Buckets: <=1: the 1000 zeros; <=10: the 1000 tens; <=100: 20s and 30s.
	if s.Buckets[0] != 1000 || s.Buckets[1] != 1000 || s.Buckets[2] != 2000 || s.Buckets[3] != 0 {
		t.Errorf("buckets = %v", s.Buckets)
	}
}

func TestGaugeAndRegistryLookupIdempotent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test.gauge")
	g.Set(3.5)
	if r.Gauge("test.gauge") != g {
		t.Error("second lookup returned a different gauge")
	}
	if v := g.Value(); v != 3.5 {
		t.Errorf("gauge = %g", v)
	}
	if r.Counter("c") != r.Counter("c") {
		t.Error("counter lookup not idempotent")
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", nil)
	c.Inc()
	c.Add(5)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments must read zero")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

func TestSnapshotTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("perfsim.layers_simulated").Add(53)
	r.Gauge("dse.frontier_size").Set(14)
	r.Histogram("dse.candidate_eval_seconds", nil).Observe(0.002)

	txt := r.Snapshot().Text()
	for _, want := range []string{"perfsim.layers_simulated", "53", "dse.frontier_size", "n=1"} {
		if !strings.Contains(txt, want) {
			t.Errorf("text snapshot missing %q:\n%s", want, txt)
		}
	}

	raw, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed Snapshot
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if parsed.Counters["perfsim.layers_simulated"] != 53 {
		t.Errorf("JSON counters: %v", parsed.Counters)
	}
	h := parsed.Histograms["dse.candidate_eval_seconds"]
	if h.Count != 1 || math.Abs(h.Mean()-0.002) > 1e-12 {
		t.Errorf("JSON histogram: %+v", h)
	}
}

// TestSnapshotTextPadsToLongestName: a name past 40 columns (the per-route
// serve names reach 49) widens the name column for every line, so each
// value keeps a column of its own; a snapshot of short names keeps the
// 40-column layout byte for byte.
func TestSnapshotTextPadsToLongestName(t *testing.T) {
	r := NewRegistry()
	r.Counter("perfsim.layers_simulated").Add(53)
	r.Gauge("dse.frontier_size").Set(14)
	short := r.Snapshot().Text()
	want := "== metrics ==\n" +
		"perfsim.layers_simulated                 53\n" +
		"dse.frontier_size                        14\n"
	if short != want {
		t.Errorf("short names:\n got %q\nwant %q", short, want)
	}

	long := "serve.route.perfsim.simulate_batch.requests_total"
	if len(long) != 49 {
		t.Fatalf("len(%q) = %d, want 49", long, len(long))
	}
	r.Counter(long).Add(7)
	r.Histogram("serve.request_seconds", nil).Observe(0.5)
	lines := strings.Split(strings.TrimSuffix(r.Snapshot().Text(), "\n"), "\n")[1:]
	if len(lines) != 4 {
		t.Fatalf("want 4 metric lines, got %q", lines)
	}
	for _, line := range lines {
		name, value := line[:49], line[49:]
		if strings.TrimRight(name, " ") == "" || value[0] != ' ' || value[1] == ' ' {
			t.Errorf("line %q: want the name padded to 49 columns, then one space and the value", line)
		}
	}
	if !strings.HasPrefix(lines[1], long+" 7") {
		t.Errorf("long-name line = %q, want %q", lines[1], long+" 7")
	}
}

// Regression: a duration histogram fed only negative (clock-skew) samples
// must clamp them to zero at record time — min, max, and sum all read 0 and
// the samples land in the first bucket, instead of a negative max leaking
// into snapshots.
func TestHistogramClampsNegativeObservations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("skewed", []float64{1, 10})
	h.Observe(-0.25)
	h.Observe(-3e-9)
	s := r.Snapshot().Histograms["skewed"]
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.Min != 0 || s.Max != 0 || s.Sum != 0 {
		t.Errorf("min/max/sum = %g/%g/%g, want 0/0/0", s.Min, s.Max, s.Sum)
	}
	if s.Buckets[0] != 2 {
		t.Errorf("buckets = %v, want both samples in the first bucket", s.Buckets)
	}
	// Mixed with a real sample, the clamped zeros must not drag max down
	// or push min negative.
	h.Observe(5)
	s = r.Snapshot().Histograms["skewed"]
	if s.Min != 0 || s.Max != 5 {
		t.Errorf("after mixed samples min/max = %g/%g, want 0/5", s.Min, s.Max)
	}
}

func TestHistogramEmptySnapshotMinMaxZero(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty", nil)
	s := r.Snapshot().Histograms["empty"]
	if s.Min != 0 || s.Max != 0 || s.Count != 0 {
		t.Errorf("empty histogram snapshot: %+v", s)
	}
	if s.Mean() != 0 {
		t.Errorf("empty mean: %g", s.Mean())
	}
}

func TestHistogramBoundsSortedAtRegistration(t *testing.T) {
	h := NewHistogram("test.unsorted_bounds_seconds", []float64{1, 0.1, 10})
	h.Observe(0.05)
	h.Observe(5)
	snap := Default().Snapshot()
	hs := snap.Histograms["test.unsorted_bounds_seconds"]
	want := []float64{0.1, 1, 10}
	for i, b := range want {
		if hs.Bounds[i] != b {
			t.Fatalf("bounds = %v, want %v", hs.Bounds, want)
		}
	}
	if hs.Buckets[0] != 1 || hs.Buckets[2] != 1 {
		t.Fatalf("buckets = %v: observations landed in wrong cells", hs.Buckets)
	}
}
