package perfsim

import (
	"context"
	"sync"

	"neurometer/internal/chip"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// Batch evaluation: the design-space engine asks one question many times —
// "this workload, this batch, these N candidate chips" — and the historical
// answer (N calls to SimulateCtx) re-validated the graph, rebuilt the
// per-layer table, and allocated a fresh Result and layer slice for every
// candidate. (*Prepared).SimulateBatch runs the same closed forms over each
// chip of a workload prepared once, and reuses pooled result scratch, so the
// steady state allocates nothing per candidate (asserted by
// TestSimulateBatchZeroAllocs). Headline metrics are bit-identical to
// per-candidate SimulateCtx calls.

var mBatchSims = obs.NewCounter("perfsim.batch_simulations")

// BatchResult holds the outcomes of one SimulateBatch call. Results[i] and
// Errs[i] correspond to chips[i]: exactly one of them is meaningful
// (Errs[i] == nil means Results[i] is valid). Batch results carry headline
// metrics and Activity only — per-layer stats are a single-candidate
// feature; use SimulateCtx when Layers matter.
//
// A BatchResult comes from an internal sync.Pool. Call Release when done to
// return the scratch for reuse; after Release the Results slice must not be
// touched. Copy out anything that must outlive the batch (Result is a value
// type once Layers is empty, so a plain assignment suffices).
type BatchResult struct {
	Results []Result
	Errs    []error
	// bind carries the tiling terms from chip to chip, and their backing
	// array from batch to batch. buf is that array for graphs of up to
	// stackClasses classes, so that a BatchResult the pool dropped (the race
	// detector drops a quarter of Puts) costs no extra allocation.
	bind Binding
	buf  [stackClasses]tileTerms
}

// Failed reports how many candidates in the batch returned an error.
func (br *BatchResult) Failed() int {
	n := 0
	for _, e := range br.Errs {
		if e != nil {
			n++
		}
	}
	return n
}

// Release returns the BatchResult's scratch to the pool. Safe on nil.
func (br *BatchResult) Release() {
	if br == nil {
		return
	}
	batchPool.Put(br)
}

var batchPool sync.Pool

// acquireBatch fetches pooled scratch sized for n candidates. Reused
// Results keep their backing arrays; every slot is fully overwritten by
// simulate before it is visible to the caller, and Errs is cleared
// here, so no state leaks between batches.
func acquireBatch(n int) *BatchResult {
	br, _ := batchPool.Get().(*BatchResult)
	if br == nil {
		br = &BatchResult{}
		br.bind.terms = br.buf[:0]
	}
	if cap(br.Results) < n || cap(br.Errs) < n {
		br.Results = make([]Result, n)
		br.Errs = make([]error, n)
		return br
	}
	br.Results = br.Results[:n]
	br.Errs = br.Errs[:n]
	for i := range br.Errs {
		br.Errs[i] = nil
	}
	return br
}

// SimulateBatch evaluates every chip in chips against the prepared
// workload. Candidate failures (nil chip, no tensor units, injected fault,
// non-finite metrics, panic) land in Errs[i] and do not disturb the other
// candidates; only batch-level problems (invalid batch, empty chip list,
// canceled ctx) fail the whole call. The ctx is checked between
// candidates and once per simulation, before its closed forms run; only
// while a fault is armed is it checked between layers too.
//
// The returned BatchResult is pooled scratch — Release it when done.
func (p *Prepared) SimulateBatch(ctx context.Context, batch int, opt Options, chips []*chip.Chip) (*BatchResult, error) {
	if batch <= 0 {
		return nil, guard.Invalid("perfsim: batch must be positive, got %d", batch)
	}
	if len(chips) == 0 {
		return nil, guard.Invalid("perfsim: simulate batch: no candidate chips")
	}
	ctx, span := obs.Start(ctx, "perfsim.simulate_batch")
	defer span.End()
	span.SetStr("graph", p.name)
	span.SetInt("batch", int64(batch))
	span.SetInt("candidates", int64(len(chips)))
	br := acquireBatch(len(chips))
	for i, c := range chips {
		if err := guard.CtxErr(ctx); err != nil {
			br.Release()
			return nil, err
		}
		br.Errs[i] = br.bind.SimulateInto(ctx, p, c, batch, opt, &br.Results[i])
	}
	mBatchSims.Inc()
	return br, nil
}
