package perfsim

import (
	"context"
	"math/bits"

	"neurometer/internal/chip"
)

// ladderRungs is how many power-of-two batches a Ladder memoizes: 1, 2, 4,
// ..., LatencyLimitedMaxBatch.
const ladderRungs = 10

// LatencyLimitedMaxBatch is the largest batch the latency-limited search
// probes.
const LatencyLimitedMaxBatch = 1 << (ladderRungs - 1)

// Ladder memoizes the successful simulations of one (Prepared, chip,
// Options) triple by power-of-two batch, from 1 up to
// LatencyLimitedMaxBatch, on one Binding. It answers the question every
// runtime number of the case study asks, "this workload on this chip at
// batch b", for callers that ask it several times: the latency-limited
// search up the doubling ladder, and a study's batch regimes, which share
// their rungs (regime b's ladder starts at regime a's batch 1).
//
// Result ownership: the Result of a power-of-two batch up to
// LatencyLimitedMaxBatch is the Ladder's and stays valid and unchanged
// until the next Reset. Any other batch is simulated into one spare
// Result, which the next such batch overwrites. Failed simulations are
// never memoized. Results carry no per-layer Layers (SimulateCtx records
// those).
//
// Reset a Ladder before its first use. A Ladder is not safe for concurrent
// use. Its Results make it about 2 KB, so a caller that needs one per
// candidate keeps and resets them (dse pools one per model).
type Ladder struct {
	p     *Prepared
	c     *chip.Chip
	opt   Options
	bind  Binding
	ok    uint16 // bit k set: res[k] holds batch 1<<k
	res   [ladderRungs]Result
	spare Result
}

// Reset empties l for the triple (p, c, opt). The Binding is kept: it
// refills itself only when p or c changes.
func (l *Ladder) Reset(p *Prepared, c *chip.Chip, opt Options) {
	l.p, l.c, l.opt, l.ok = p, c, opt, 0
}

// Simulate returns the simulation of batch, from the memo when l holds it
// and through SimulateInto otherwise; see the type's comment for how long
// the returned Result stays valid.
func (l *Ladder) Simulate(ctx context.Context, batch int) (*Result, error) {
	if batch <= 0 || batch > LatencyLimitedMaxBatch || batch&(batch-1) != 0 {
		if err := l.bind.SimulateInto(ctx, l.p, l.c, batch, l.opt, &l.spare); err != nil {
			return nil, err
		}
		return &l.spare, nil
	}
	k := bits.TrailingZeros(uint(batch))
	if l.ok&(1<<k) == 0 {
		if err := l.bind.SimulateInto(ctx, l.p, l.c, batch, l.opt, &l.res[k]); err != nil {
			return nil, err
		}
		l.ok |= 1 << k
	}
	return &l.res[k], nil
}

// LatencyLimited finds the largest power-of-two batch whose latency stays
// within bound (the paper's "latency limited batch size", §III-B.2): it
// simulates batch 1, then doubles up to LatencyLimitedMaxBatch, stopping
// at the first batch over the bound, and returns the last batch within it
// with that batch's Result — batch 1 even when it misses the bound. A
// simulation error ends the search with that error.
func (l *Ladder) LatencyLimited(ctx context.Context, bound float64) (int, *Result, error) {
	best, err := l.Simulate(ctx, 1)
	if err != nil {
		return 0, nil, err
	}
	batch := 1
	for b := 2; b <= LatencyLimitedMaxBatch; b *= 2 {
		r, err := l.Simulate(ctx, b)
		if err != nil {
			return 0, nil, err
		}
		if r.LatencySec > bound {
			break
		}
		batch, best = b, r
	}
	return batch, best, nil
}
