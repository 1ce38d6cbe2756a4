package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"neurometer/internal/chip"
	"neurometer/internal/dse"
	"neurometer/internal/obs"
	"neurometer/internal/refchips"
)

// tracing collects the spans of a traced run. Every traced set-up and op
// gets its own obs request tracer with a benchmark root span, so the
// program's spans (dse.enumerate, dse.runtime-study, dse.candidate,
// serve.*, perfsim.*) nest under the benchmark's, and memory stays bounded
// by one op's spans.
type tracing struct {
	mu        sync.Mutex
	bench     map[string][]float64 // benchmark span durations (ms) by path
	perfsimNS int64                // host time of ops in outermost perfsim work spans
	setupT    *obs.Tracer          // the last set-up, kept for the artefact
	opT       *obs.Tracer          // the first traced op, kept for the artefact
}

func newTracing() *tracing { return &tracing{bench: map[string][]float64{}} }

// perfsimWork are the spans whose time is spent simulating: one candidate
// of a study, or one simulate request.
var perfsimWork = map[string]bool{"dse.candidate": true, "perfsim.simulate": true, "perfsim.simulate_batch": true}

// begin starts a traced root span; end finishes it and folds its spans
// into the aggregate. On a nil tracing both are no-ops.
func (t *tracing) begin(root string) (context.Context, func()) {
	ctx := context.Background()
	if t == nil {
		return ctx, func() {}
	}
	rt := obs.NewRequestTracer()
	ctx, sp := rt.StartRoot(ctx, root)
	return ctx, func() {
		sp.End()
		t.fold(rt, root)
	}
}

func (t *tracing) fold(rt *obs.Tracer, root string) {
	spans := rt.WireSpans()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "bench.") {
			t.bench[s.Path] = append(t.bench[s.Path], float64(s.DurNS)/1e6)
		}
		if root == "bench.op" && perfsimWork[s.Name] && !nestedIn(s.Path, perfsimWork) {
			t.perfsimNS += s.DurNS
		}
	}
	switch {
	case root == "bench.setup":
		t.setupT = rt
	case t.opT == nil:
		t.opT = rt
	}
}

// nestedIn reports whether any ancestor in a span path is in set.
func nestedIn(path string, set map[string]bool) bool {
	parts := strings.Split(path, "/")
	for _, p := range parts[:len(parts)-1] {
		if set[p] {
			return true
		}
	}
	return false
}

func (t *tracing) spans(path string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.bench[path]...)
}

func (t *tracing) writeArtefacts(dir, name string) error {
	for suffix, tr := range map[string]*obs.Tracer{"setup": t.setupT, "op": t.opT} {
		if tr == nil {
			continue
		}
		f, err := os.Create(filepath.Join(dir, name+"."+suffix+".trace.json"))
		if err != nil {
			return err
		}
		werr := tr.WriteChromeTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// measureLayers splits the window in three, in this order:
//
//   - the first half runs untraced and gives the exact counts, the Go
//     allocator deltas, the per-route client latencies and the baseline
//     for the tracing overhead;
//   - a quarter runs untraced under the CPU profiler, for the profile;
//   - the last quarter runs with every op traced and gives the span times.
//
// No obs request tracer exists before the traced quarter, so the first two
// stretches take the program's untraced path. After the window, one traced
// set-up gives the set-up trace and, where ops do not enumerate, the
// enumeration time; then the chip build pass runs. The returned window
// holds the ops of all three stretches.
func measureLayers(inst instance, wl workload, cfg config, w io.Writer) (map[string]metric, window, error) {
	c0 := obs.Default().Snapshot().Counters
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := measure(inst, wl.clients, cfg.window/2, nil)
	runtime.ReadMemStats(&m1)
	c1 := obs.Default().Snapshot().Counters
	reportOps(w, "untraced op_ms", plain)

	prof, err := os.Create(filepath.Join(cfg.out, wl.name+".cpu.pprof"))
	if err != nil {
		return nil, window{}, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, window{}, err
	}
	profiled := measure(inst, wl.clients, cfg.window/4, nil)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, window{}, err
	}
	reportOps(w, "profiled op_ms", profiled)

	tr := newTracing()
	traced := measure(inst, wl.clients, cfg.window/4, tr)
	reportOps(w, "traced op_ms", traced)
	one := cfg
	one.reps = 1
	extra, _, err := setUp(wl, one, tr)
	if err != nil {
		return nil, window{}, fmt.Errorf("traced set-up: %w", err)
	}
	if err := extra.close(); err != nil {
		return nil, window{}, err
	}
	if err := tr.writeArtefacts(cfg.out, wl.name); err != nil {
		return nil, window{}, err
	}
	buildMS, err := chipBuildPass()
	if err != nil {
		return nil, window{}, err
	}

	ops := float64(plain.attempted)
	delta := func(name string) float64 { return float64(c1[name] - c0[name]) }
	perOp := func(name string) float64 { return delta(name) / ops }
	ratio := func(hit float64, rest ...float64) float64 {
		all := hit
		for _, r := range rest {
			all += r
		}
		if all == 0 {
			return 0
		}
		return hit / all
	}
	enumMS := tr.spans("bench.op/bench.enumerate")
	if len(enumMS) == 0 {
		enumMS = tr.spans("bench.setup/bench.enumerate")
	}
	opTotal := sum(tr.spans("bench.op"))
	layersTraced := float64(traced.attempted) * perOp("perfsim.layers_simulated")

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	put("dse.enumerate_ms", "ms", median(enumMS))
	put("dse.enumerate_share_pct", "%", pct(sum(tr.spans("bench.op/bench.enumerate")), opTotal))
	put("dse.runtime_study_ms", "ms", median(tr.spans("bench.op/bench.fig10")))
	put("chip.builds_per_op", "count", perOp("chip.builds"))
	put("chip.build_failures_per_op", "count", perOp("chip.build_failures"))
	put("chip.build_ms_p50", "ms", median(buildMS))
	put("chip.build_cache_hit_ratio", "ratio", ratio(delta("chip.build_cache_hits"), delta("chip.build_cache_misses")))
	put("memarray.builds_per_op", "count", perOp("memarray.builds"))
	put("memarray.evals_per_op", "count", perOp("memarray.evals"))
	put("noc.builds_per_op", "count", perOp("noc.builds"))
	put("perfsim.simulations_per_op", "count", perOp("perfsim.simulations"))
	put("perfsim.layers_per_op", "count", perOp("perfsim.layers_simulated"))
	put("perfsim.us_per_layer", "us", safeDiv(float64(tr.perfsimNS)/1e3, layersTraced))
	put("rstore.open_ms", "ms", median(tr.spans("bench.op/bench.rstore_open")))
	put("rstore.hits_per_op", "count", perOp("rstore.hits"))
	put("rstore.hit_ratio", "ratio", ratio(delta("rstore.hits"), delta("rstore.misses"), delta("rstore.degraded")))
	put("rstore.corrupt_quarantined", "count", delta("rstore.corrupt_quarantined"))
	put("serve.chip_build_p50_ms", "ms", median(plain.byRoute["chip_build"]))
	put("serve.simulate_p50_ms", "ms", median(plain.byRoute["simulate"]))
	put("serve.simulate_batch_p50_ms", "ms", median(plain.byRoute["simulate_batch"]))
	put("serve.shed_total", "count", delta("serve.shed_total"))
	put("serve.responses_5xx", "count", delta("serve.responses_5xx"))
	put("go.alloc_mb_per_op", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/ops)
	put("go.mallocs_per_op", "count", float64(m1.Mallocs-m0.Mallocs)/ops)
	put("go.gc_per_op", "count", float64(m1.NumGC-m0.NumGC)/ops)
	put("trace.overhead_pct", "%", pct(percentile(traced.ms, 50)-percentile(plain.ms, 50), percentile(plain.ms, 50)))

	plain.merge(profiled)
	plain.merge(traced)
	return m, plain, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func pct(part, whole float64) float64 { return 100 * safeDiv(part, whole) }

// chipBuildPass times chip.Build, uncached, on every Table I point that
// survives dse's peak-TOPS prune: the builds a cold enumeration makes.
// Over-budget points fail by design and are timed all the same. It fails if
// a cold dse.EnumerateCtx no longer builds exactly those points, so a
// change to dse's pruning cannot leave chip.build_ms_p50 timing a
// different set of points unnoticed.
func chipBuildPass() ([]float64, error) {
	cs := dse.TableI()
	pts := peakSurvivors(cs)
	chip.ResetBuildCache()
	before := obs.Default().Snapshot().Counters["chip.builds"]
	dse.EnumerateCtx(context.Background(), cs)
	if built := obs.Default().Snapshot().Counters["chip.builds"] - before; built != int64(len(pts)) {
		return nil, fmt.Errorf("chip build pass: a cold enumeration builds %d chips, the pass would time %d points; peakSurvivors no longer matches dse's prune", built, len(pts))
	}
	var ms []float64
	for _, p := range pts {
		start := time.Now()
		chip.Build(cs.Config(p))
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
	}
	return ms, nil
}

// peakSurvivors lists the Table I sweep points that dse.EnumerateCtx
// builds: power-of-two Tx x Ty grids with Ty = Tx or 2Tx, whose peak TOPS
// lies within [cap/32, cap].
func peakSurvivors(cs dse.Constraints) []dse.Point {
	var pts []dse.Point
	for _, x := range cs.XChoices {
		for _, n := range cs.NChoices {
			for tx := 1; tx*tx <= cs.MaxTiles*2; tx *= 2 {
				for _, ty := range []int{tx, 2 * tx} {
					if tx*ty > cs.MaxTiles {
						continue
					}
					p := dse.Point{X: x, N: n, Tx: tx, Ty: ty}
					peak := 2 * float64(x*x*n*p.Tiles()) * cs.ClockHz / 1e12
					if peak <= cs.TOPSCap*1.001 && peak >= cs.TOPSCap/32 {
						pts = append(pts, p)
					}
				}
			}
		}
	}
	return pts
}

// validationErrors returns the largest chip-level area and TDP errors, in
// percent, of the model against the published TPU-v1, TPU-v2 and Eyeriss.
func validationErrors() (area, tdp float64, err error) {
	for _, validate := range []func() (refchips.Report, error){
		refchips.ValidateTPUv1, refchips.ValidateTPUv2, refchips.ValidateEyeriss,
	} {
		r, err := validate()
		if err != nil {
			return 0, 0, err
		}
		area = math.Max(area, 100*r.AreaErr())
		tdp = math.Max(tdp, 100*r.TDPErr())
	}
	return area, tdp, nil
}
