package guard

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"neurometer/internal/obs"
)

// Deterministic fault injection.
//
// Instrumented code declares named sites — Inject at control-flow points,
// CorruptFloat at value-producing points. Production runs pay one atomic
// load per site visit (armed is zero, nothing else executes). Tests arm
// faults with Arm and drive exactly the Nth visit of a site into a panic,
// a delay, an error, or a NaN, proving the corresponding recovery path
// end to end without randomness.

// Fault describes what happens when an armed site is hit.
type Fault struct {
	// Skip ignores the first Skip hits of the site; the fault fires on
	// hit Skip+1. Deterministic targeting of "the third candidate".
	Skip int
	// Count limits how many times the fault fires (0 = every hit after
	// Skip).
	Count int

	// Panic makes the site panic with a recognizable value.
	Panic bool
	// Delay makes the site sleep (context-aware: an expired ctx cuts the
	// sleep short and surfaces through the site's error return).
	Delay time.Duration
	// Err makes the site return this error.
	Err error
	// NaN makes CorruptFloat replace the site's value with NaN.
	NaN bool
	// OnHit, when non-nil, runs synchronously as the fault fires (after
	// Delay, before Panic/Err). Tests use it to cancel contexts or take
	// snapshots at an exact, reproducible point in a sweep.
	OnHit func()
}

// siteState is one site's armed fault plus its hit and firing counts.
type siteState struct {
	Fault
	hits  int
	fired int
}

var (
	// armed is the fast-path gate: number of sites with a fault armed.
	armed atomic.Int32

	injectMu sync.Mutex
	faults   map[string]*siteState

	// mFaults counts fired faults in the obs default registry.
	mFaults = obs.NewCounter("guard.faults_injected")
)

// Arm installs a fault at the named site and returns a disarm func.
// Arming a site replaces any fault already installed there and restarts
// its hit count. Safe for concurrent use with site hits; tests normally
// defer the disarm.
func Arm(site string, f Fault) (disarm func()) {
	injectMu.Lock()
	defer injectMu.Unlock()
	if faults == nil {
		faults = map[string]*siteState{}
	}
	if _, exists := faults[site]; !exists {
		armed.Add(1)
	}
	faults[site] = &siteState{Fault: f}
	return func() { Disarm(site) }
}

// Armed reports whether any fault is currently armed at any site. Caching
// layers (chip.BuildCached) consult it to bypass memoization while faults
// are live, so a cached result can never swallow an injected failure and
// hit-count targeting ("fire on the Nth visit") stays deterministic.
func Armed() bool { return armed.Load() > 0 }

// Disarm removes the fault at the named site, if any.
func Disarm(site string) {
	injectMu.Lock()
	defer injectMu.Unlock()
	if _, exists := faults[site]; exists {
		delete(faults, site)
		armed.Add(-1)
	}
}

// DisarmAll removes every armed fault (test cleanup).
func DisarmAll() {
	injectMu.Lock()
	defer injectMu.Unlock()
	armed.Add(-int32(len(faults)))
	faults = nil
}

// take records a hit at site and returns a copy of its armed fault when
// the fault fires on this hit. Hit counting is serialized under the
// injection lock, so Skip/Count stay exact under parallel workers.
func take(site string) (Fault, bool) {
	injectMu.Lock()
	defer injectMu.Unlock()
	st, ok := faults[site]
	if !ok {
		return Fault{}, false
	}
	st.hits++
	if st.hits <= st.Skip || (st.Count > 0 && st.fired >= st.Count) {
		return Fault{}, false
	}
	st.fired++
	return st.Fault, true
}

// Inject is a fault-injection site for control flow. With no fault armed
// it costs one atomic load. When the armed fault fires it sleeps Delay
// (bounded by ctx), runs OnHit, then panics or returns the fault error;
// an expired ctx during the delay returns the classified context error.
// A nil ctx is treated as background.
func Inject(ctx context.Context, site string) error {
	if armed.Load() == 0 {
		return nil
	}
	f, fire := take(site)
	if !fire {
		return nil
	}
	mFaults.Inc()
	if f.Delay > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		t := time.NewTimer(f.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			if f.OnHit != nil {
				f.OnHit()
			}
			return CtxErr(ctx)
		}
	}
	if f.OnHit != nil {
		f.OnHit()
	}
	if f.Panic {
		panic(fmt.Sprintf("guard: injected panic at site %q", site))
	}
	return f.Err
}

// CorruptFloat is a fault-injection site for values: it returns v, or NaN
// when the armed fault (with NaN set) fires. With no fault armed it costs
// one atomic load.
func CorruptFloat(site string, v float64) float64 {
	if armed.Load() == 0 {
		return v
	}
	f, fire := take(site)
	if !fire || !f.NaN {
		return v
	}
	mFaults.Inc()
	return math.NaN()
}
