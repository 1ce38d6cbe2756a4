// Package guard is NeuroMeter's robustness layer: a typed failure
// taxonomy shared by every model package, finite-number guards that keep
// NaN/Inf out of frontiers and reports, panic-to-error recovery for sweep
// workers, and a deterministic fault-injection facility (inject.go) used
// by tests to prove every recovery path.
//
// The taxonomy is deliberately small. Every error a model entry point
// returns wraps exactly one of the sentinel errors (ErrInvalidConfig,
// ErrInfeasible, ErrNonFinite, ErrTimeout, ErrCanceled,
// ErrCandidatePanic, ErrUnavailable, ErrCorrupt), so callers classify
// failures with errors.Is and the CLIs render structured one-line
// diagnostics with Kind.
//
// # Concurrency contract
//
// Everything here is safe for concurrent use: classification helpers are
// pure, RecoverTo touches only its caller's error, and the injection
// registry is guarded by atomics — parallel sweep workers may all pass
// through armed Inject sites, and hit counting stays exact. Fault arming
// itself is process-global, so tests that arm faults must not run in
// parallel with unrelated tests (the repo's convention is a deferred
// DisarmAll and no t.Parallel in those tests). Armed reports whether any
// fault is live; caching layers consult it to get out of the blast path.
//
// # Context errors
//
// CtxErr classifies a context's state under the taxonomy: nil while live,
// ErrCanceled after cancellation, ErrTimeout after a deadline. It is the
// single idiom the sweeps use to decide between "keep going" and "stop".
//
// # Fault-site registry
//
// Arm targets a named site with one fault, fired by hit count
// (Skip/Count); Inject (or CorruptFloat) fires it when execution reaches
// the site. Sites returns the canonical registry below as a slice
// (sites.go), so tests can enumerate it: dse.TestFaultTableCoversEverySite
// fails when a registered site has no row in the store-damage fault table. The
// complete set of production sites, in evaluation order:
//
//	chip.build             chip.Build, before any modeling — a failing
//	                       site makes the whole candidate fail fast.
//	perfsim.simulate       perfsim.Simulate entry, before the layer walk.
//	perfsim.layer          once per layer, in the per-layer pass a
//	                       simulation runs while any fault is armed; with
//	                       Fault.Skip/Count this pinpoints one layer of
//	                       one candidate.
//	perfsim.achieved_tops  a CorruptFloat site on the final AchievedTOPS
//	                       value: Fault.NaN proves the non-finite guards
//	                       catch a corrupted metric before it reaches a
//	                       frontier or a CSV row.
//	dse.candidate          once per candidate in the study pool, after
//	                       the result-store phase — the cancel/rerun
//	                       test hook.
//	rstore.read            result-store Get, before the disk read.
//	rstore.write           result-store Put, before the tmp-file write —
//	                       the ENOSPC/full-disk hook.
//	rstore.scan            once per entry visited by the startup
//	                       recovery scan; drives the unreadable-entry
//	                       quarantine path.
//
// Sites are plain strings, so a typo arms a site that never fires;
// tests should assert on observable effects (counters, errors), not on
// arming having "taken". When adding a site, register it here and keep
// the name as "package.operation".
package guard
