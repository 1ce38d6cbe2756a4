package obs

import (
	"regexp"
	"strings"
	"testing"
)

// expositionLine matches the three legal line shapes of the Prometheus text
// exposition format — the same regex discipline the CI smoke job applies to
// a live /metricz?format=prom scrape.
var expositionLine = regexp.MustCompile(
	`^(# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+|# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+)$`)

func promFixture() Snapshot {
	return Snapshot{
		Counters: map[string]int64{
			"serve.requests_total": 7,
			Name("serve.route_requests_total", "route", "chip.build"):               4,
			Name("serve.route_errors_total", "route", "chip.build", "kind", "shed"): 2,
			Name("serve.route_errors_total", "route", "dse.study", "kind", "shed"):  1,
		},
		Gauges: map[string]float64{
			"runtime.goroutines": 12,
		},
		Histograms: map[string]HistogramSnapshot{
			Name("serve.route_request_seconds", "route", "chip.build"): {
				Count:   4,
				Sum:     0.75,
				Bounds:  []float64{0.1, 1},
				Buckets: []int64{1, 2, 1}, // last = overflow past 1s
			},
		},
	}
}

func TestPrometheusExpositionShape(t *testing.T) {
	out := string(promFixture().Prometheus())
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("line fails exposition shape: %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE neurometer_serve_requests_total counter",
		"neurometer_serve_requests_total 7",
		`neurometer_serve_route_errors_total{route="chip.build",kind="shed"} 2`,
		`neurometer_serve_route_requests_total{route="chip.build"} 4`,
		"# TYPE neurometer_serve_route_request_seconds histogram",
		`neurometer_serve_route_request_seconds_bucket{route="chip.build",le="0.1"} 1`,
		`neurometer_serve_route_request_seconds_bucket{route="chip.build",le="1"} 3`,
		`neurometer_serve_route_request_seconds_bucket{route="chip.build",le="+Inf"} 4`,
		`neurometer_serve_route_request_seconds_sum{route="chip.build"} 0.75`,
		`neurometer_serve_route_request_seconds_count{route="chip.build"} 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// One family header per base name, even with several label variants.
	if n := strings.Count(out, "# TYPE neurometer_serve_route_errors_total"); n != 1 {
		t.Errorf("route_errors_total has %d TYPE headers, want 1", n)
	}
}

func TestPrometheusDeterministic(t *testing.T) {
	a := string(promFixture().Prometheus())
	b := string(promFixture().Prometheus())
	if a != b {
		t.Fatal("two renders of the same snapshot differ")
	}
	// Families are sorted by exposition name.
	var famLines []string
	for _, line := range strings.Split(a, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			famLines = append(famLines, line)
		}
	}
	for i := 1; i < len(famLines); i++ {
		if famLines[i] < famLines[i-1] {
			t.Fatalf("families out of order: %q after %q", famLines[i], famLines[i-1])
		}
	}
}

func TestNameEscapesLabelValues(t *testing.T) {
	got := Name("m", "k", `a"b\c`+"\n")
	want := `m{k="a\"b\\c\n"}`
	if got != want {
		t.Fatalf("Name = %q, want %q", got, want)
	}
	base, labels := splitName(got)
	if base != "m" || labels != `k="a\"b\\c\n"` {
		t.Fatalf("splitName = (%q, %q)", base, labels)
	}
}

func TestBuildInfoGauge(t *testing.T) {
	RegisterBuildInfo()
	snap := Default().Snapshot()
	found := false
	for name, v := range snap.Gauges {
		base, labels := splitName(name)
		if base != "build_info" {
			continue
		}
		found = true
		if v != 1 {
			t.Errorf("build_info = %g, want 1", v)
		}
		for _, lbl := range []string{"version=", "revision=", "goversion=", "modified="} {
			if !strings.Contains(labels, lbl) {
				t.Errorf("build_info labels %q missing %s", labels, lbl)
			}
		}
	}
	if !found {
		t.Fatal("build_info gauge not registered")
	}
	if !strings.Contains(string(snap.Prometheus()), "neurometer_build_info{") {
		t.Fatal("exposition missing neurometer_build_info")
	}
	if s := ReadBuildInfo().String(); !strings.HasPrefix(s, "neurometer ") {
		t.Fatalf("version string %q", s)
	}
}

func TestRuntimeGauges(t *testing.T) {
	UpdateRuntimeMetrics()
	snap := Default().Snapshot()
	if snap.Gauges["runtime.goroutines"] < 1 {
		t.Errorf("runtime.goroutines = %g", snap.Gauges["runtime.goroutines"])
	}
	if snap.Gauges["runtime.heap_alloc_bytes"] <= 0 {
		t.Errorf("runtime.heap_alloc_bytes = %g", snap.Gauges["runtime.heap_alloc_bytes"])
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
