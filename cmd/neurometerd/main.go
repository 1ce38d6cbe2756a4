// Command neurometerd serves the NeuroMeter models over HTTP with the
// robustness envelope described in DESIGN.md §10: admission control and
// load shedding, per-request deadlines, panic containment, a degraded-
// readiness watchdog, and DSE studies answered within the request.
//
// The flags size admission (per-endpoint limits, queue depth, admission
// timeout) and deployment (address, result store, drain, logs). The rest of
// the envelope is fixed: a 30 s request deadline (?timeout_ms= tightens
// it), /readyz degraded after 5 consecutive 5xx responses, 1 MiB request
// bodies, 0–3 s of Retry-After jitter on a 429, and slow=true on
// access-log lines of 1 s or more.
//
//	neurometerd -addr :8080 -result-store /var/lib/neurometer/results
//
// Endpoints:
//
//	GET  /healthz                    liveness (always 200 while the process runs)
//	GET  /readyz                     readiness (503 while draining or degraded)
//	GET  /metricz                    metrics snapshot (text or ?format=json)
//	POST /v1/chip/build              chip model report for a preset or inline config
//	POST /v1/perfsim/simulate        one workload × batch on a chip
//	POST /v1/perfsim/simulate-batch  one workload × batch on many chips
//	POST /v1/dse/study               a whole design-space study (at most 4096
//	                                 design points), answered with its rows and CSV
//
// Result store: -result-store dir arms the persistent content-addressed
// result cache (internal/rstore) that studies read through. Entries
// are verified on every read (checksum, fingerprint, finiteness); corrupt
// or torn entries are quarantined under dir/quarantine and recomputed, so
// a damaged store can slow the daemon down but never change a result or
// take it down. The store is also what carries a study across a deadline
// or a restart: posting again a study that ran out of time reruns it,
// serving the candidates that finished as store hits.
//
// SIGTERM and SIGINT begin a graceful drain: the listener closes, in-flight
// requests (studies included) finish, and the process exits 0 within
// -drain-timeout (exit 1 if the drain deadline expires first).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"neurometer/internal/obs"
	"neurometer/internal/rstore"
	"neurometer/internal/serve"
)

func main() {
	def := serve.DefaultConfig()
	addr := flag.String("addr", ":8080", "listen address")
	buildLimit := flag.Int("build-limit", def.BuildLimit, "max concurrent /v1/chip/build requests")
	simLimit := flag.Int("simulate-limit", def.SimulateLimit, "max concurrent /v1/perfsim/simulate requests")
	studyLimit := flag.Int("study-limit", def.StudyLimit, "max concurrent /v1/dse/study requests")
	queueDepth := flag.Int("queue-depth", def.QueueDepth, "admission queue depth per endpoint (0 = default; negative = no waiting room)")
	admissionTimeout := flag.Duration("admission-timeout", def.AdmissionTimeout, "max wait for an execution slot before shedding")
	workers := flag.Int("workers", 0, "study evaluation workers (0 = GOMAXPROCS)")
	resultStore := flag.String("result-store", "", "persistent per-candidate result store directory that studies read through (empty disables; corrupt entries are quarantined and recomputed)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time for the graceful drain on SIGTERM/SIGINT")
	accessLog := flag.String("access-log", "stderr", "structured JSON access log destination: stderr, off, or a file path")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stop, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "neurometerd: %v\n", err)
		os.Exit(1)
	}
	defer stop()

	cfg := serve.Config{
		BuildLimit:       *buildLimit,
		SimulateLimit:    *simLimit,
		StudyLimit:       *studyLimit,
		QueueDepth:       *queueDepth,
		AdmissionTimeout: *admissionTimeout,
		Workers:          *workers,
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

// run serves until SIGTERM/SIGINT, then drains within drainTimeout.
func run(cfg serve.Config, addr string, drainTimeout time.Duration) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s := serve.New(cfg)

	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	slog.Info("neurometerd: serving", "addr", l.Addr().String())

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
