package guard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strings"

	"neurometer/internal/obs"
)

// Observability: recovery-path counters in the obs default registry. Every
// failure mode the sweeps absorb is visible under the CLIs' -metrics flag.
var (
	mPanics    = obs.NewCounter("guard.panics_recovered")
	mNonFinite = obs.NewCounter("guard.nonfinite_rejected")
)

// The failure taxonomy. Model packages wrap these with context via the
// constructor helpers below; callers classify with errors.Is.
var (
	// ErrInvalidConfig marks a configuration the model refuses to
	// evaluate: missing required fields, out-of-range parameters,
	// non-finite inputs.
	ErrInvalidConfig = errors.New("invalid config")

	// ErrInfeasible marks a well-formed configuration with no feasible
	// implementation: timing cannot close, budgets are exceeded, the
	// memory optimizer finds no organization.
	ErrInfeasible = errors.New("infeasible")

	// ErrNonFinite marks a model output rejected because it contained
	// NaN or Inf. Such values must never reach frontiers, winners, or
	// CSV output.
	ErrNonFinite = errors.New("non-finite result")

	// ErrTimeout marks work stopped because its caller's deadline passed
	// (a request's timeout, for example). Nothing below the caller sets a
	// deadline of its own: evaluations are closed forms that finish in
	// microseconds.
	ErrTimeout = errors.New("timeout")

	// ErrCanceled marks an evaluation aborted because the whole run was
	// canceled (SIGINT, parent context): the sweep is shutting down.
	ErrCanceled = errors.New("canceled")

	// ErrCandidatePanic marks a panicking evaluation converted to an
	// error by RecoverTo. Panics are deterministic model bugs, not
	// transient conditions.
	ErrCandidatePanic = errors.New("candidate panicked")

	// ErrUnavailable marks an infrastructure failure, such as an
	// unreadable result-store entry. The work itself is fine: a store
	// read that fails degrades to evaluation, and a store write that
	// fails only leaves the row unsaved.
	ErrUnavailable = errors.New("unavailable")

	// ErrCorrupt marks persisted state that failed integrity verification:
	// a result-store entry with a bad checksum, a torn write, a foreign
	// format version, or a payload that deserializes to something other
	// than what its fingerprint promises. Rereading the same bytes cannot
	// fix them, but it is never fatal either: every consumer of
	// persisted state treats ErrCorrupt as "this copy does not exist"
	// (quarantine it, recompute the result).
	ErrCorrupt = errors.New("corrupt data")
)

// Invalid returns an ErrInvalidConfig-wrapping error with a formatted
// message.
func Invalid(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidConfig, fmt.Sprintf(format, args...))
}

// Infeasible returns an ErrInfeasible-wrapping error with a formatted
// message.
func Infeasible(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInfeasible, fmt.Sprintf(format, args...))
}

// NonFinite returns an ErrNonFinite-wrapping error naming the offending
// quantity, and counts the rejection.
func NonFinite(name string, v float64) error {
	mNonFinite.Inc()
	return fmt.Errorf("%w: %s = %v", ErrNonFinite, name, v)
}

// Classify maps context errors onto the taxonomy: DeadlineExceeded becomes
// ErrTimeout, Canceled becomes ErrCanceled. Other errors (including nil)
// pass through unchanged.
func Classify(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	return err
}

// CtxErr returns the classified context error, or nil when ctx is live.
// Model loops call it between units of work so a caller's deadline and
// SIGINT cancellation interrupt long evaluations promptly.
func CtxErr(ctx context.Context) error {
	return Classify(context.Cause(ctx))
}

// Unavailable returns an ErrUnavailable-wrapping error with a formatted
// message.
func Unavailable(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUnavailable, fmt.Sprintf(format, args...))
}

// Corrupt returns an ErrCorrupt-wrapping error with a formatted message.
func Corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Kind names the taxonomy class of err for structured one-line CLI
// diagnostics ("invalid-config", "infeasible", "non-finite", "timeout",
// "canceled", "panic", "unavailable", "corrupt") or "error" for errors
// outside the taxonomy.
func Kind(err error) string {
	switch {
	case errors.Is(err, ErrInvalidConfig):
		return "invalid-config"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	case errors.Is(err, ErrNonFinite):
		return "non-finite"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrCandidatePanic):
		return "panic"
	case errors.Is(err, ErrUnavailable):
		return "unavailable"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return "error"
}

// CheckFinite returns an ErrNonFinite error when v is NaN or ±Inf, nil
// otherwise. name labels the quantity in the error message.
func CheckFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return NonFinite(name, v)
	}
	return nil
}

// CheckFinites validates a set of named quantities and reports the first
// non-finite one. Pairs alternate name, value:
//
//	guard.CheckFinites("area_mm2", a, "tdp_w", w)
func CheckFinites(pairs ...any) error {
	for i := 0; i+1 < len(pairs); i += 2 {
		name, _ := pairs[i].(string)
		v, ok := pairs[i+1].(float64)
		if !ok {
			return Invalid("CheckFinites: pair %d is %T, want float64", i/2, pairs[i+1])
		}
		if err := CheckFinite(name, v); err != nil {
			return err
		}
	}
	return nil
}

// RecoverTo converts an in-flight panic into an ErrCandidatePanic-wrapping
// error stored in *errp, preserving the panic value and a one-line origin.
// Use as a deferred call around one unit of sweep work:
//
//	func eval(...) (err error) {
//	    defer guard.RecoverTo(&err)
//	    ...
//	}
//
// The recovery is counted in the guard.panics_recovered metric. A nil errp
// converts the panic silently (still counted).
func RecoverTo(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	mPanics.Inc()
	if errp != nil {
		*errp = fmt.Errorf("%w: %v (at %s)", ErrCandidatePanic, r, panicOrigin())
	}
}

// panicOrigin extracts the topmost non-runtime frame of the recovered
// panic's stack for the one-line error message. The stack formats as pairs
// of "func\n\tfile:line" lines; scanning for the first frame outside
// runtime and this package is a best-effort nicety — fall back to
// "unknown" rather than risk a secondary failure.
func panicOrigin() string {
	lines := strings.Split(string(debug.Stack()), "\n")
	for i := 0; i+1 < len(lines); i++ {
		l := lines[i]
		if len(l) == 0 || l[0] == '\t' || strings.HasPrefix(l, "goroutine ") {
			continue
		}
		if strings.HasPrefix(l, "panic") || strings.HasPrefix(l, "runtime") ||
			strings.HasPrefix(l, "neurometer/internal/guard.") {
			continue
		}
		if strings.HasPrefix(lines[i+1], "\t") {
			if loc, _, ok := strings.Cut(strings.TrimSpace(lines[i+1]), " "); ok {
				return loc
			}
			return strings.TrimSpace(lines[i+1])
		}
		return l
	}
	return "unknown"
}
