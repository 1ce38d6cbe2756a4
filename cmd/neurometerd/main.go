// Command neurometerd serves the NeuroMeter models over HTTP with the
// robustness envelope described in DESIGN.md §10: admission control and
// load shedding, per-request deadlines, panic containment, a degraded-
// readiness watchdog, and crash-safe DSE study jobs that resume from their
// checkpoints after a restart.
//
//	neurometerd -addr :8080 -jobs-dir /var/lib/neurometer/jobs
//
// Endpoints:
//
//	GET  /healthz                 liveness (always 200 while the process runs)
//	GET  /readyz                  readiness (503 while draining or degraded)
//	GET  /metricz                 metrics snapshot (text, ?format=json, or
//	                              ?format=prom for Prometheus exposition)
//	POST /v1/chip/build           chip model report for a preset or inline config
//	POST /v1/perfsim/simulate     one workload × batch on a chip
//	POST /v1/dse/study            submit (or resume) an async study job
//	GET  /v1/dse/study/{id}       job status and, when done, the result rows
//	POST /v1/worker/eval          evaluate one study shard (fleet worker side)
//
// Fleet mode: every neurometerd is a capable worker (the /v1/worker/eval
// endpoint is always mounted). Passing -fleet host1:8080,host2:8080 makes
// this instance a coordinator too: study jobs shard across the named
// workers with leases, retries, hedging, and per-worker circuit breakers,
// and fall back to in-process evaluation for anything the fleet cannot
// resolve. Results are byte-identical to a single-process run.
//
// Result store: -result-store dir arms the persistent content-addressed
// result cache (internal/rstore) shared by study jobs and the worker
// endpoint. Entries are verified on every read (checksum, fingerprint,
// finiteness); corrupt or torn entries are quarantined under
// dir/quarantine and recomputed, so a damaged store can slow the daemon
// down but never change a result or take it down.
//
// SIGTERM and SIGINT begin a graceful drain: the listener closes, in-flight
// requests finish, running study jobs are canceled and flush their
// checkpoints, and the process exits 0 within -drain-timeout (exit 1 if the
// drain deadline expires first).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"neurometer/internal/fleet"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/rstore"
	"neurometer/internal/serve"
)

func main() {
	def := serve.DefaultConfig()
	addr := flag.String("addr", ":8080", "listen address")
	buildLimit := flag.Int("build-limit", def.BuildLimit, "max concurrent /v1/chip/build requests")
	simLimit := flag.Int("simulate-limit", def.SimulateLimit, "max concurrent /v1/perfsim/simulate requests")
	studyLimit := flag.Int("study-limit", def.StudyLimit, "max concurrently running study jobs")
	queueDepth := flag.Int("queue-depth", def.QueueDepth, "admission queue depth per endpoint")
	maxQueuedJobs := flag.Int("max-queued-jobs", def.MaxQueuedJobs, "max study jobs waiting for a run slot")
	admissionTimeout := flag.Duration("admission-timeout", def.AdmissionTimeout, "max wait for an execution slot before shedding")
	requestTimeout := flag.Duration("request-timeout", def.RequestTimeout, "default per-request deadline")
	shedWatermark := flag.Float64("shed-watermark", def.ShedWatermark, "shed build/simulate requests while dse.eval_inflight is at or above this (0 disables)")
	degradedAfter := flag.Int("degraded-after", def.DegradedAfter, "consecutive 5xx responses before /readyz reports degraded (negative disables)")
	workers := flag.Int("workers", 0, "study evaluation workers (0 = GOMAXPROCS)")
	workerLimit := flag.Int("worker-limit", def.WorkerLimit, "max concurrent /v1/worker/eval shard evaluations")
	jobsDir := flag.String("jobs-dir", "", "directory for study-job checkpoints (empty: jobs do not survive restarts)")
	resultStore := flag.String("result-store", "", "persistent per-candidate result store directory shared by studies and /v1/worker/eval (empty disables; corrupt entries are quarantined and recomputed)")
	retryJitter := flag.Int("retry-after-jitter", def.RetryAfterJitter, "seconds of uniform jitter added to Retry-After on 429 (negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time for the graceful drain on SIGTERM/SIGINT")
	fleetWorkers := flag.String("fleet", "", "comma-separated worker URLs; coordinator mode: shard study jobs across them (workers may also join at runtime)")
	fleetShardSize := flag.Int("fleet-shard-size", fleet.DefaultShardSize, "candidates per fleet shard")
	fleetLease := flag.Duration("fleet-lease", fleet.DefaultLeaseTTL, "per-shard lease TTL before requeue")
	fleetHedge := flag.Duration("fleet-hedge-after", fleet.DefaultHedgeAfter, "hedge a straggling shard on a second worker after this long (negative disables)")
	fleetAttempts := flag.Int("fleet-max-attempts", fleet.DefaultMaxAttempts, "max attempts per shard before local fallback")
	heartbeat := flag.Duration("heartbeat", fleet.DefaultHeartbeat, "coordinator: membership probe interval; worker: re-registration interval under -join (0 disables probing)")
	suspectAfter := flag.Duration("suspect-after", fleet.DefaultSuspectAfter, "coordinator: mark a worker suspect after this long without a successful probe")
	evictAfter := flag.Duration("evict-after", fleet.DefaultEvictAfter, "coordinator: evict a worker after this long without a successful probe (must exceed -suspect-after)")
	joinURL := flag.String("join", "", "worker mode: coordinator base URL to register with at startup and re-register every -heartbeat (requires -advertise; incompatible with -fleet)")
	advertise := flag.String("advertise", "", "worker mode: the URL the coordinator should dispatch to for this worker, e.g. http://10.0.0.7:8080")
	accessLog := flag.String("access-log", "stderr", "structured JSON access log destination: stderr, off, or a file path")
	slowRequest := flag.Duration("slow-request", def.SlowRequest, "flag access-log lines slow=true at or above this latency (negative disables)")
	debugAddr := flag.String("debug-addr", "", "listen address for net/http/pprof debug endpoints (empty disables)")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stop, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "neurometerd: %v\n", err)
		os.Exit(1)
	}
	defer stop()

	// Fleet flags fail fast: a bad lease/hedge/attempts combination or a
	// contradictory topology (-join with -fleet) is an invalid-config exit 2
	// at startup, not a misbehaving study at first dispatch.
	if err := validateFleetFlags(*fleetWorkers, *joinURL, *advertise, *fleetLease, *fleetHedge, *fleetAttempts); err != nil {
		fmt.Fprintf(os.Stderr, "neurometerd: %v\n", err)
		stop()
		os.Exit(guard.ExitCode(err))
	}

	cfg := serve.Config{
		BuildLimit:       *buildLimit,
		SimulateLimit:    *simLimit,
		StudyLimit:       *studyLimit,
		QueueDepth:       *queueDepth,
		MaxQueuedJobs:    *maxQueuedJobs,
		AdmissionTimeout: *admissionTimeout,
		RequestTimeout:   *requestTimeout,
		ShedWatermark:    *shedWatermark,
		DegradedAfter:    *degradedAfter,
		Workers:          *workers,
		WorkerLimit:      *workerLimit,
		JobsDir:          *jobsDir,
		RetryAfterJitter: *retryJitter,
		SlowRequest:      *slowRequest,
	}
	if *resultStore != "" {
		st, err := rstore.OpenDisk(*resultStore)
		if err != nil {
			fmt.Fprintf(os.Stderr, "neurometerd: -result-store: %v\n", err)
			stop()
			os.Exit(1)
		}
		cfg.Results = rstore.NewCache(st)
		defer cfg.Results.Close()
	}
	logger, closeLog, err := openAccessLog(*accessLog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "neurometerd: -access-log: %v\n", err)
		stop()
		os.Exit(1)
	}
	defer closeLog()
	cfg.AccessLog = logger
	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}
	if *fleetWorkers != "" {
		coord, err := fleet.New(fleet.Config{
			Workers:      splitWorkers(*fleetWorkers),
			ShardSize:    *fleetShardSize,
			LeaseTTL:     *fleetLease,
			HedgeAfter:   *fleetHedge,
			MaxAttempts:  *fleetAttempts,
			Heartbeat:    *heartbeat,
			SuspectAfter: *suspectAfter,
			EvictAfter:   *evictAfter,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "neurometerd: -fleet: %v\n", err)
			stop()
			os.Exit(guard.ExitCode(err))
		}
		defer coord.Close()
		cfg.Dispatch = coord.Dispatch
		cfg.Membership = coord.Membership()
		slog.Info("neurometerd: coordinator mode", "workers", coord.Workers(),
			"heartbeat", *heartbeat, "suspect_after", *suspectAfter, "evict_after", *evictAfter)
	}
	if *joinURL != "" {
		cfg.Join = strings.TrimRight(*joinURL, "/")
		cfg.Advertise = *advertise
		cfg.JoinInterval = *heartbeat
		slog.Info("neurometerd: worker mode, joining fleet",
			"coordinator", cfg.Join, "advertise", cfg.Advertise, "interval", *heartbeat)
	}
	if err := run(cfg, *addr, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "neurometerd: %v\n", err)
		stop()
		os.Exit(1)
	}
}

// openAccessLog resolves the -access-log destination to a JSON slog logger:
// "off" disables, "stderr" shares the process log stream, anything else is
// an append-only file. The returned close function flushes the file on
// drain.
func openAccessLog(dest string) (*slog.Logger, func(), error) {
	switch dest {
	case "off", "":
		return nil, func() {}, nil
	case "stderr":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), func() {}, nil
	}
	f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return slog.New(slog.NewJSONHandler(f, nil)), func() { f.Close() }, nil
}

// serveDebug mounts net/http/pprof on its own listener, kept off the main
// service mux so profiling endpoints are never reachable on the public
// address.
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	slog.Info("neurometerd: pprof debug endpoints up", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		slog.Warn("neurometerd: debug listener failed", "addr", addr, "err", err)
	}
}

// validateFleetFlags is the startup gate for the fleet topology flags; every
// violation is an invalid-config error (exit code 2). A -fleet list must
// name at least one worker: the coordinator itself accepts an empty table
// (workers may join at runtime), but an empty flag value is a typo.
func validateFleetFlags(fleetList, join, advertise string, lease, hedge time.Duration, attempts int) error {
	if join != "" && fleetList != "" {
		return guard.Invalid("-join and -fleet are mutually exclusive: a process is a worker that registers with a coordinator, or the coordinator itself")
	}
	if join != "" && advertise == "" {
		return guard.Invalid("-join requires -advertise: the coordinator needs a URL to dispatch to")
	}
	if fleetList == "" {
		return nil
	}
	if len(splitWorkers(fleetList)) == 0 {
		return guard.Invalid("-fleet: no workers configured")
	}
	return fleet.ValidateFlags(lease, hedge, attempts)
}

// splitWorkers parses the -fleet flag's comma-separated URL list.
func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

// run serves until SIGTERM/SIGINT, then drains within drainTimeout.
func run(cfg serve.Config, addr string, drainTimeout time.Duration) error {
	if cfg.JobsDir != "" {
		if err := os.MkdirAll(cfg.JobsDir, 0o755); err != nil {
			return fmt.Errorf("-jobs-dir: %w", err)
		}
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s := serve.New(cfg)

	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	slog.Info("neurometerd: serving", "addr", l.Addr().String(), "jobs_dir", cfg.JobsDir)

	select {
	case err := <-serveErr:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	cancelSignals() // a second signal kills the process the default way

	slog.Info("neurometerd: signal received, draining", "timeout", drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil {
		return err
	}
	slog.Info("neurometerd: drained cleanly")
	return nil
}
