package perfsim

import (
	"context"
	"sync"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// Batch evaluation: the design-space engine asks one question many times —
// "this workload, this batch, these N candidate chips" — and the historical
// answer (N calls to SimulateCtx) re-validated the graph, rebuilt the
// per-layer table, and allocated a fresh Result and layer slice for every
// candidate. SimulateBatch prepares the workload once, runs the same
// closed forms over each chip, and reuses pooled result scratch, so the
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

// SimulateBatch evaluates one workload at one batch size across many
// candidate chips, preparing the graph once. See (*Prepared).SimulateBatch
// for the full contract; use that method directly when the same workload is
// batched repeatedly.
func SimulateBatch(ctx context.Context, g *graph.Graph, batch int, opt Options, chips []*chip.Chip) (*BatchResult, error) {
	p, err := Prepare(g)
	if err != nil {
		return nil, err
	}
	return p.SimulateBatch(ctx, batch, opt, chips)
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
		br.Errs[i] = p.SimulateInto(ctx, c, batch, opt, &br.Results[i])
	}
	mBatchSims.Inc()
	return br, nil
}

// SimulateInto runs one prepared simulation into caller-owned scratch,
// fully overwriting *res (the Layers backing array is reused but left
// empty — per-layer stats are not recorded on this path). It allocates
// nothing in the steady state and produces headline metrics bit-identical
// to SimulateCtx. res must not be nil.
func (p *Prepared) SimulateInto(ctx context.Context, c *chip.Chip, batch int, opt Options, res *Result) error {
	return p.simulateBound(ctx, c, batch, opt, res, nil)
}

// simulateBound is SimulateInto reading the tiling terms from b when b is
// non-nil.
func (p *Prepared) simulateBound(ctx context.Context, c *chip.Chip, batch int, opt Options, res *Result, b *Binding) error {
	if c == nil {
		return guard.Invalid("perfsim: nil chip")
	}
	if batch <= 0 {
		return guard.Invalid("perfsim: batch must be positive, got %d", batch)
	}
	if err := guard.Inject(ctx, "perfsim.simulate"); err != nil {
		return err
	}
	return simulate(ctx, c, p, batch, opt, res, nil, b)
}
