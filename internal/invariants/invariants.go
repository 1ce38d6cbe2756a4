// Package invariants collects the system-level assertions the codebase
// promises piecemeal — gauges drain to zero, goroutines don't leak,
// counters only go up, the quarantine stays bounded — as plain
// error-returning checks plus thin testing adapters. The serve and dse
// lifecycle tests and the store-damage fault table
// (dse.TestStoreDamageUnderFaults) assert the same checks, so what one
// suite promises cannot drift from another. The package deliberately
// imports nothing above obs, so every layer's in-package tests can adopt
// it.
package invariants

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"neurometer/internal/obs"
)

// DrainedGauges returns the gauges that must read zero whenever the
// system is quiescent (no requests in flight, all pools stopped). Each
// one is an in-flight/occupancy gauge some subsystem increments on entry
// and decrements on every exit path; a nonzero reading at rest means a
// leaked decrement.
func DrainedGauges() []string {
	return []string{
		"dse.eval_inflight",
		"dse.queue_depth",
		"serve.inflight",
	}
}

// GaugesDrained checks that every named gauge reads exactly zero in the
// snapshot. Gauges absent from the snapshot pass: a process that never
// touched a subsystem never registered its gauges.
func GaugesDrained(snap obs.Snapshot, names ...string) error {
	if len(names) == 0 {
		names = DrainedGauges()
	}
	var bad []string
	for _, name := range names {
		if v, ok := snap.Gauges[name]; ok && v != 0 {
			bad = append(bad, fmt.Sprintf("%s=%g", name, v))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("gauges not drained at rest: %s", strings.Join(bad, ", "))
	}
	return nil
}

// CountersMonotonic checks that no counter moved backwards (or vanished)
// between two snapshots. Counters are cumulative by contract; a decrease
// means double-registration or a raw Set on a counter.
func CountersMonotonic(before, after obs.Snapshot) error {
	var bad []string
	for name, b := range before.Counters {
		a, ok := after.Counters[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s vanished (was %d)", name, b))
			continue
		}
		if a < b {
			bad = append(bad, fmt.Sprintf("%s went %d -> %d", name, b, a))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("counters moved backwards: %s", strings.Join(bad, "; "))
	}
	return nil
}

// FiniteGauges checks that no gauge in the snapshot holds a NaN or Inf —
// the obs-layer face of the repo-wide "no non-finite numbers escape"
// contract.
func FiniteGauges(snap obs.Snapshot) error {
	var bad []string
	for name, v := range snap.Gauges {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, fmt.Sprintf("%s=%g", name, v))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("non-finite gauges: %s", strings.Join(bad, ", "))
	}
	return nil
}

// GoroutineBaseline samples the current goroutine count, to be taken
// before the lifecycle under test starts.
func GoroutineBaseline() int { return runtime.NumGoroutine() }

// NoGoroutineLeak checks that the goroutine count settles back to
// baseline+slack within grace. Runtime-internal helpers (GC workers,
// netpoller threads) come and go, hence the slack; exiting goroutines
// need a beat to unwind, hence the GC-and-poll loop rather than a single
// sample. On failure the error carries a full stack dump.
func NoGoroutineLeak(baseline, slack int, grace time.Duration) error {
	deadline := time.Now().Add(grace)
	var n int
	for {
		runtime.GC()
		n = runtime.NumGoroutine()
		if n <= baseline+slack {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return fmt.Errorf("goroutine leak: %d goroutines, baseline %d (slack %d)\n%s",
		n, baseline, slack, buf)
}

// RequireGaugesDrained is the testing adapter for GaugesDrained against
// the default obs registry.
func RequireGaugesDrained(tb testing.TB, names ...string) {
	tb.Helper()
	if err := GaugesDrained(obs.Default().Snapshot(), names...); err != nil {
		tb.Error(err)
	}
}

// RequireNoGoroutineLeak is the testing adapter for NoGoroutineLeak with
// the conventional tolerance (2 goroutines, 3s settle) used across the
// serve and dse lifecycle tests.
func RequireNoGoroutineLeak(tb testing.TB, baseline int) {
	tb.Helper()
	if err := NoGoroutineLeak(baseline, 2, 3*time.Second); err != nil {
		tb.Error(err)
	}
}

// QuarantineAccounting checks a result store's on-disk bookkeeping after
// a run: no *.tmp droppings under objects/ (crash-safe writes clean up or
// the next scan does), and the quarantine directory within the entry cap.
// maxEntries <= 0 means "no cap check".
func QuarantineAccounting(storeDir string, maxEntries int) error {
	objects := filepath.Join(storeDir, "objects")
	var tmps []string
	err := filepath.WalkDir(objects, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return filepath.SkipAll
			}
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			tmps = append(tmps, path)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("quarantine accounting: %w", err)
	}
	if len(tmps) > 0 {
		return fmt.Errorf("orphaned tmp files under objects/ after recovery: %v", tmps)
	}
	if maxEntries > 0 {
		ents, err := os.ReadDir(filepath.Join(storeDir, "quarantine"))
		if err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("quarantine accounting: %w", err)
		}
		n := 0
		for _, e := range ents {
			if !e.IsDir() {
				n++
			}
		}
		if n > maxEntries {
			return fmt.Errorf("quarantine holds %d entries, cap is %d", n, maxEntries)
		}
	}
	return nil
}
