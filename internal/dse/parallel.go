package dse

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// The parallel sweep engine. Every candidate evaluation in this package —
// a chip.Build during enumeration, a full runtime study of one design
// point — is independent of every other, so the sweeps fan work out across
// a bounded pool of goroutines and collect results by candidate index.
// Ordering by index (not by completion) is what keeps the engine
// deterministic: the assembled candidate list, Frontier/SecondRound/Winner
// inputs, and CSV emission are byte-identical to a serial run's,
// regardless of worker count or scheduling. See DESIGN.md §9 for the
// determinism argument.

// Observability: pool-level gauges in the obs default registry.
// dse.eval_inflight tracks evaluations currently executing;
// dse.queue_depth tracks claimed-but-unstarted work remaining in the
// current sweep. Both drain to zero when a sweep finishes or is canceled.
var (
	gInflight   = obs.NewGauge("dse.eval_inflight")
	gQueueDepth = obs.NewGauge("dse.queue_depth")
)

// resolveWorkers maps a Workers knob to an effective pool size: values
// below 1 mean "one worker" (the historical serial behavior of the zero
// value), and DefaultWorkers resolves to GOMAXPROCS.
func resolveWorkers(workers int) int {
	if workers == DefaultWorkers {
		return runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// DefaultWorkers selects GOMAXPROCS workers (the cmd/dse -workers default).
const DefaultWorkers = -1

// runPool executes fn(i) for every i in [0, n) across at most workers
// goroutines and blocks until all claimed work finishes. Each worker claims
// the next index from an atomic cursor, so a one-worker pool degenerates to
// the plain serial loop (run inline on the caller's goroutine — no spawn,
// no synchronization beyond the claim and two atomic gauge ops per item).
//
// Determinism: the worker count changes only which worker evaluates which
// index, never what is computed — results are collected by index, so
// output is byte-identical at any worker count; the parallel byte-identity
// tests pin it.
//
// Cancellation: each item checks ctx first; once ctx is done no new work
// starts, in-flight items run to completion (they observe the same ctx
// internally and unwind quickly), and runPool returns the classified
// context error. fn must do its own panic recovery (the dse evaluators
// convert panics to guard.ErrCandidatePanic); a panic escaping fn would
// take the process down exactly as it would in a serial loop.
func runPool(ctx context.Context, n, workers int, fn func(i int)) error {
	workers = resolveWorkers(workers)
	if workers > n {
		workers = n
	}
	gQueueDepth.Add(float64(n))
	var cursor atomic.Int64
	runOne := func(i int) {
		gInflight.Add(1)
		// Deferred so a panic escaping fn (it shouldn't — the evaluators
		// recover — but a guard fault or future bug could) cannot leak an
		// inflight slot past the sweep.
		defer gInflight.Add(-1)
		fn(i)
	}
	work := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			gQueueDepth.Add(-1)
			if guard.CtxErr(ctx) != nil {
				continue // drain the queue gauge, start nothing new
			}
			runOne(i)
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	return guard.CtxErr(ctx)
}
