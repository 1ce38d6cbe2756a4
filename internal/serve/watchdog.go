package serve

import (
	"log/slog"
	"sync/atomic"

	"neurometer/internal/obs"
)

var mDegraded = obs.NewCounter("serve.degraded_total")

// watchdog tracks consecutive request failures and trips the server into a
// degraded state that /readyz reports as 503 — the signal a load balancer
// needs to stop routing to an instance that keeps failing, while /healthz
// stays green so the orchestrator does not kill a process that can still
// recover. The next successful request un-trips it.
type watchdog struct {
	consecutive atomic.Int64
	degraded    atomic.Bool
}

// fail records one server-side failure; degradedAfter in a row trip the
// degraded state (counted once per trip).
func (w *watchdog) fail() {
	if n := w.consecutive.Add(1); n >= degradedAfter {
		if !w.degraded.Swap(true) {
			mDegraded.Inc()
			slog.Warn("serve: watchdog tripped, /readyz degraded",
				"consecutive_failures", n, "threshold", degradedAfter)
		}
	}
}

// ok records one success, resetting the failure streak and un-tripping the
// degraded state.
func (w *watchdog) ok() {
	w.consecutive.Store(0)
	if w.degraded.Swap(false) {
		slog.Info("serve: watchdog recovered, /readyz ready")
	}
}

func (w *watchdog) isDegraded() bool { return w.degraded.Load() }
