// Command dse reproduces the paper's §III datacenter case study: the
// design-space sweep of brawny and wimpy inference accelerators under the
// Table I constraints, with the figures selectable via -fig:
//
//	-fig 7   software-optimization ablation (throughput before/after)
//	-fig 8   chip-level area/TDP breakdowns and peak efficiencies
//	-fig 9   batch sweep + 10ms latency-limited batch on (64,2,2,4)
//	-fig 10  runtime performance/efficiency across design points
//
// Observability flags (see the README's Observability section):
//
//	-trace f.json   Chrome trace-event JSON of the sweep (Perfetto loadable)
//	-metrics        metrics snapshot on exit (candidates pruned, layers
//	                simulated, eval-latency histogram, ...)
//	-cpuprofile f   pprof CPU profile
//	-memprofile f   pprof heap profile
//	-v              debug-level progress logging
//
// Parallelism and export (see DESIGN.md §9):
//
//	-workers n      candidate-evaluation pool size (default GOMAXPROCS;
//	                1 = serial). Output is byte-identical at any n.
//	-csv prefix     also write -fig 10 rows to prefix.<regime>.csv
//
// SIGINT interrupts a sweep gracefully: in-flight candidates unwind and the
// process exits with kind=canceled. A candidate's evaluation is a closed
// form that takes microseconds, so there is no per-candidate deadline.
//
// Exit codes: 0 success; 2 invalid config (an unknown -fig included) or
// infeasible study; 130 canceled (SIGINT); 1 any other failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"neurometer/internal/dse"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// hardenFlags carries the parallelism and export flag values into run.
type hardenFlags struct {
	workers int
	csv     string
}

func main() {
	fig := flag.Int("fig", 10, "figure to reproduce: 7, 8, 9 or 10; 0 = ablation studies; -1 = edge-scenario sweep")
	var hf hardenFlags
	flag.IntVar(&hf.workers, "workers", dse.DefaultWorkers, "candidate-evaluation workers (default GOMAXPROCS; 1 = serial; output is identical at any count)")
	flag.StringVar(&hf.csv, "csv", "", "also write -fig 10 rows as CSV at <prefix>.<regime>.csv")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stop, err := obsFlags.Setup()
	if err != nil {
		log.Fatal(err)
	}
	// SIGINT cancels the run context; the sweep loops notice it between
	// candidates (and perfsim before each simulation) and unwind with
	// guard.ErrCanceled.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	runErr := run(ctx, *fig, hf)
	stopSignals()
	stop() // flush profiles/trace/metrics before any exit
	if runErr != nil {
		guard.PrintErr("dse", runErr)
		// 2 = invalid/infeasible, 130 = canceled (SIGINT), 1 = anything else.
		os.Exit(guard.ExitCode(runErr))
	}
}

func run(ctx context.Context, fig int, hf hardenFlags) error {
	ctx, root := obs.Start(ctx, "dse.run")
	root.SetInt("fig", int64(fig))
	defer root.End()

	cs := dse.TableI()
	switch fig {
	case -1:
		rows, err := dse.EdgeStudy()
		if err != nil {
			return err
		}
		fmt.Println("edge sweep (28nm, 16mm2, 2W, LPDDR 12.8GB/s): single-image inference")
		fmt.Printf("%-12s %9s %9s %7s | %20s | %20s\n",
			"point", "peakTOPS", "area-mm2", "TDP-W", "resnet50 (ms, fps/W)", "mobilenet (ms, fps/W)")
		for _, r := range rows {
			fmt.Printf("%-12s %9.2f %9.1f %7.2f | %9.1f %9.1f | %9.2f %9.1f\n",
				r.Point, r.PeakTOPS, r.AreaMM2, r.TDPW,
				r.LatencyMS, r.FPSPerWatt, r.MobileLatencyMS, r.MobileFPSPerWatt)
		}
	case 0:
		s, err := dse.AllAblations(cs)
		if err != nil {
			return err
		}
		fmt.Println(s)
	case 7:
		rows, err := dse.Fig7(cs, dse.DefaultModels(), []int{1, 4, 16, 64, 256})
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %6s %12s %12s %7s\n", "model", "batch", "fps-before", "fps-after", "gain")
		for _, r := range rows {
			fmt.Printf("%-10s %6d %12.1f %12.1f %6.2fx\n", r.Model, r.Batch, r.FPSBefore, r.FPSAfter, r.Gain())
		}
	case 8:
		rows := dse.Fig8(dse.EnumerateParallel(ctx, cs, hf.workers))
		fmt.Printf("%-14s %9s %9s %8s %9s %12s  breakdown (mm2)\n",
			"point", "peakTOPS", "area", "TDP", "TOPS/W", "TOPS/TCO")
		for _, r := range rows {
			bd := r.AreaBreakdown
			cores := bd.Find("cores")
			fmt.Printf("%-14s %9.2f %8.1f %7.1fW %9.3f %12.6f  tu=%.0f mem=%.0f vu=%.0f su=%.0f cdb=%.0f noc=%.0f\n",
				r.Point, r.PeakTOPS, r.AreaMM2, r.TDPW, r.PeakTOPSPerW, r.PeakTOPSPerTCO*1e3,
				cores.Child("tu").AreaMM2, cores.Child("mem").AreaMM2,
				cores.Child("vu").AreaMM2, cores.Child("su").AreaMM2,
				cores.Child("cdb").AreaMM2, bd.Child("noc").AreaMM2)
		}
	case 9:
		rows, limits, err := dse.Fig9(cs, dse.DefaultModels(), []int{1, 2, 4, 8, 16, 32, 64, 128, 256})
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %6s %10s %10s %s\n", "model", "batch", "fps", "latency", "SLO10")
		for _, r := range rows {
			fmt.Printf("%-10s %6d %10.1f %8.2fms %v\n", r.Model, r.Batch, r.FPS, r.LatencyMS, r.MeetsSLO10)
		}
		fmt.Println("\n10ms latency-limited batch sizes (paper: resnet=16, nasnet=4, inception=32):")
		for _, m := range []string{"resnet", "nasnet", "inception"} {
			fmt.Printf("  %-10s %d\n", m, limits[m])
		}
	case 10:
		cands := dse.SecondRound(dse.EnumerateParallel(ctx, cs, hf.workers), cs.TOPSCap)
		out, err := dse.Fig10Hardened(ctx, cands, dse.DefaultModels(), dse.Hardening{Workers: hf.workers}, "")
		if err != nil {
			return err
		}
		for _, name := range dse.Fig10Regimes {
			rows := out[name]
			if hf.csv != "" {
				p := hf.csv + "." + name + ".csv"
				if err := os.WriteFile(p, []byte(dse.RuntimeRowsCSV(rows)), 0o644); err != nil {
					return fmt.Errorf("dse: write csv: %w", err)
				}
			}
			fmt.Printf("== Fig 10(%s) ==\n%s", name, dse.FormatRuntimeRows(rows))
			report := func(label string, f func(dse.RuntimeRow) float64) {
				w, err := dse.Winner(rows, f)
				if err == nil {
					fmt.Printf("  best %-12s %s\n", label, w.Point)
				}
			}
			report("throughput", dse.ByAchievedTOPS)
			report("utilization", dse.ByUtilization)
			report("TOPS/W", dse.ByTOPSPerWatt)
			report("TOPS/TCO", dse.ByTOPSPerTCO)
			fmt.Println()
		}
	default:
		return guard.Invalid("dse: unknown figure %d (want 7, 8, 9 or 10; 0 = ablations; -1 = edge sweep)", fig)
	}
	return nil
}
