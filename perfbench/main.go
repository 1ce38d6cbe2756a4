// Command perfbench is the repository's end-to-end benchmark. It drives
// NeuroMeter through its public packages from one process, over the
// paper's Table I design space at 28 nm, in one of four workloads:
//
//	sweep-cold   a cold dse -fig 10 -workers 1: enumerate, frontier,
//	             second round and the three-regime runtime study
//	study-warm   the runtime study alone over pre-built candidates
//	store-warm   the runtime study read back from a warm result store
//	daemon-mix   a closed loop of neurometerd requests, in process
//
// Usage (from the repository root; run.sh builds and execs this):
//
//	perfbench --workload study-warm --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 they are the per-layer set, and a
// Chrome trace and a CPU profile are written under --out. README.md
// explains the workloads, the metrics and the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"time"

	"neurometer/internal/chip"
)

// Pinned harness settings. They, and GOMAXPROCS, are recorded in the
// report header so two runs can be checked for like-for-like settings.
const (
	studyWorkers = 1 // dse.Hardening.Workers: the serial, historical study path
	setupReps    = 5 // set-ups per run; setup_s is their median
	warmup       = time.Second
)

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	out      string // artefact directory (stores, traces, profiles)
	reps     int    // set-up repetitions
}

// output is the benchmark's result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var seconds int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep-cold, study-warm, store-warm or daemon-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for the result store, traces and profiles")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = *trace == 1
	cfg.reps = setupReps
	if seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}

	// The model packages log through slog; INFO lines (one per result
	// store open) would add stderr I/O to every store-warm op.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))

	out, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and returns its result line; the
// human-readable report goes to w.
func run(cfg config, w io.Writer) (output, error) {
	wl, ok := workloadByName(cfg.workload)
	if !ok {
		return output{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return output{}, err
	}
	// One P per client goroutine. With an idle second P, the single-client
	// studies ran slower and less steadily on a shared 2-vCPU VM: the
	// runtime keeps waking it for GC work and spinning.
	runtime.GOMAXPROCS(wl.clients)
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d hardening.workers=%d clients=%d go=%s\n",
		wl.name, cfg.seed, cfg.window.Seconds(), cfg.trace, runtime.GOMAXPROCS(0), studyWorkers, wl.clients, runtime.Version())

	// Set-ups and the untraced ops run before any obs request tracer
	// exists, so they take the program's untraced path; a traced run
	// traces one extra set-up after its window.
	inst, setups, err := setUp(wl, cfg, nil)
	if err != nil {
		return output{}, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	defer func() {
		if err := inst.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close:", err)
		}
	}()
	fmt.Fprintf(w, "setup_s p50=%.4f (n=%d)\n", median(setups), len(setups))
	if d, ok := inst.(digester); ok {
		fmt.Fprintf(w, "fig10 digest %s (reference from set-up)\n", d.reference())
	}

	warm := measure(inst, wl.clients, warmup, nil)
	fmt.Fprintf(w, "warm-up: %d ops discarded\n", warm.attempted)

	o := output{Metrics: map[string]metric{}}
	var win window
	if cfg.trace {
		o.Metrics, win, err = measureLayers(inst, wl, cfg, w)
		if err != nil {
			return output{}, err
		}
	} else {
		win = measure(inst, wl.clients, cfg.window, nil)
		// The median and the throughput are printed but are not metrics:
		// the shared host runs these ops at two speeds in stretches of
		// seconds to minutes, so a run's median lands in whichever speed
		// holds more than half its ops, and its mean moves with their mix.
		// The 90th percentile sits in the slow speed and repeats. README.md
		// gives the measurements.
		reportOps(w, "op_ms", win)
		p90 := percentile(win.ms, 90)
		fmt.Fprintf(w, "ops_per_s %.2f (clients / mean op host time)\n",
			safeDiv(float64(wl.clients*len(win.ms)), sum(win.ms)/1e3))
		// The samples are the benchmark's, not the program's: drop them
		// before measuring the heap (daemon-mix keeps about 1 MB of them).
		win.ms, win.byRoute = nil, nil
		heap := liveHeapMB()
		fmt.Fprintf(w, "live heap %.2f MB after GC\n", heap)
		area, tdp, err := validationErrors()
		if err != nil {
			return output{}, err
		}
		fmt.Fprintf(w, "validation: area_err_max_pct=%.2f tdp_err_max_pct=%.2f\n", area, tdp)
		put := func(name, unit string, v float64) { o.Metrics[name] = metric{v, unit} }
		put("op_p90_ms", "ms", p90)
		put("setup_s", "s", median(setups))
		put("live_heap_mb", "MB", heap)
		put("area_err_max_pct", "%", area)
		put("tdp_err_max_pct", "%", tdp)
	}
	for _, e := range win.errs {
		fmt.Fprintln(w, "failed op:", e)
	}
	o.Attempted, o.Failed = win.attempted, win.failed
	o.Correct = o.Failed == 0 && o.Attempted > 0
	return o, nil
}

// setUp builds the workload instance cfg.reps times from a cold process
// state and returns the last one with every set-up's duration. Each
// repetition starts from an empty chip build memo, so each pays the same
// cold enumeration.
func setUp(wl workload, cfg config, tr *tracing) (instance, []float64, error) {
	var inst instance
	var secs []float64
	for i := 0; i < cfg.reps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		chip.ResetBuildCache()
		runtime.GC()
		ctx, end := tr.begin("bench.setup")
		start := time.Now()
		var err error
		inst, err = wl.setup(ctx, cfg)
		secs = append(secs, time.Since(start).Seconds())
		end()
		if err != nil {
			return nil, nil, err
		}
	}
	return inst, secs, nil
}

// liveHeapMB is the heap still reachable at the end of a run. The second
// GC empties the sync.Pool victim caches the first one leaves behind.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func reportOps(w io.Writer, label string, win window) {
	n := len(win.ms)
	fmt.Fprintf(w, "ops: attempted=%d failed=%d wall=%.3fs\n", win.attempted, win.failed, win.wall.Seconds())
	fmt.Fprintf(w, "%s p50=%.4f (n=%d) p90=%.4f (n=%d, %d beyond)\n",
		label, percentile(win.ms, 50), n, percentile(win.ms, 90), n, n-int(0.9*float64(n)+0.5))
}
