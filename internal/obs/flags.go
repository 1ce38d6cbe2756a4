package obs

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags bundles the standard observability flags a NeuroMeter CLI exposes.
// Register them on a FlagSet with RegisterFlags, then call Setup after
// flag.Parse; the returned stop function flushes profiles, writes the
// Chrome trace, and renders the metrics snapshot. Call it before exiting
// (and after the work's root span has ended).
type Flags struct {
	CPUProfile string // -cpuprofile: pprof CPU profile path
	MemProfile string // -memprofile: pprof heap profile path
	Trace      string // -trace: Chrome trace-event JSON path
	Metrics    bool   // -metrics: print the metrics snapshot on exit
	Verbose    bool   // -v: debug logging (span-aware handler on stderr)
	Version    bool   // -version: print the build identity and exit
}

// RegisterFlags adds the observability flags to fs (use flag.CommandLine
// for a CLI's main flag set).
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to `file`")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to `file` on exit")
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) to `file`")
	fs.BoolVar(&f.Metrics, "metrics", false, "print the metrics snapshot on exit")
	fs.BoolVar(&f.Verbose, "v", false, "verbose: debug-level, span-aware logging on stderr")
	fs.BoolVar(&f.Version, "version", false, "print version and build information, then exit")
	return f
}

// Setup activates whatever the parsed flags ask for: the span tracer, the
// CPU profiler, and debug logging. The returned stop function finalizes
// everything; it is safe to call exactly once.
func (f *Flags) Setup() (stop func(), err error) {
	if f.Version {
		fmt.Println(ReadBuildInfo().String())
		os.Exit(0)
	}
	level := slog.LevelInfo
	if f.Verbose {
		level = slog.LevelDebug
	}
	slog.SetDefault(slog.New(NewLogHandler(os.Stderr, level)))

	var cpuFile *os.File
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("obs: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("obs: -cpuprofile: %w", err)
		}
	}
	if f.Trace != "" {
		StartTracing()
	}

	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if f.Trace != "" {
			if t := StopTracing(); t != nil {
				if err := writeTraceFile(f.Trace, t); err != nil {
					fmt.Fprintf(os.Stderr, "obs: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "obs: wrote Chrome trace to %s (load in chrome://tracing or ui.perfetto.dev)\n", f.Trace)
				}
				fmt.Fprint(os.Stderr, t.Profile())
			}
		}
		if f.MemProfile != "" {
			if err := writeHeapProfile(f.MemProfile); err != nil {
				fmt.Fprintf(os.Stderr, "obs: %v\n", err)
			}
		}
		if f.Metrics {
			fmt.Fprint(os.Stderr, Default().Snapshot().Text())
		}
	}, nil
}

func writeTraceFile(path string, t *Tracer) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	defer out.Close()
	if err := t.WriteChromeTrace(out); err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	return out.Close()
}

func writeHeapProfile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	defer out.Close()
	runtime.GC() // up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(out); err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	return out.Close()
}
