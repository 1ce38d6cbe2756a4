package dse

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/maclib"
	"neurometer/internal/obs"
	"neurometer/internal/perfsim"
	"neurometer/internal/periph"
	"neurometer/internal/rstore"
	"neurometer/internal/workloads"
)

// Observability: sweep counters and the per-candidate evaluation latency
// histogram feed the obs default registry; progress is logged at debug
// level (visible under the CLIs' -v flag).
var (
	mEnumerated   = obs.NewCounter("dse.candidates_enumerated")
	mPruned       = obs.NewCounter("dse.candidates_pruned")
	mFeasible     = obs.NewCounter("dse.candidates_feasible")
	mEvalFailures = obs.NewCounter("dse.candidate_failures")
	mEvalPanics   = obs.NewCounter("dse.candidate_panics")
	mEvalLatency  = obs.NewHistogram("dse.candidate_eval_seconds", nil)
)

// progressEvery is the candidate interval between progress log lines in
// the enumeration and runtime-study loops.
const progressEvery = 16

// Point is one design point: TU length X, TUs per core N, and the Tx x Ty
// tile grid.
type Point struct {
	X, N, Tx, Ty int
}

func (p Point) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d)", p.X, p.N, p.Tx, p.Ty)
}

// Tiles returns the core count.
func (p Point) Tiles() int { return p.Tx * p.Ty }

// Constraints mirrors Table I.
type Constraints struct {
	TechNM        int
	ClockHz       float64
	AreaBudgetMM2 float64
	PowerBudgetW  float64
	TOPSCap       float64
	MemBytes      int64
	NoCBisectGBps float64
	OffChipGBps   float64
	// XChoices / NChoices bound the sweep; MaxTiles bounds the grid.
	XChoices []int
	NChoices []int
	MaxTiles int
}

// TableI returns the paper's datacenter constraint set: 28nm, 700MHz,
// 500mm^2 / 300W budgets, 92 TOPS upper bound, 32MB distributed memory,
// 256GB/s NoC bisection, 700GB/s HBM.
func TableI() Constraints {
	return Constraints{
		TechNM:        28,
		ClockHz:       700e6,
		AreaBudgetMM2: 500,
		PowerBudgetW:  300,
		TOPSCap:       92,
		MemBytes:      32 << 20,
		NoCBisectGBps: 256,
		OffChipGBps:   700,
		XChoices:      []int{4, 8, 16, 32, 64, 128, 256},
		NChoices:      []int{1, 2, 4},
		MaxTiles:      128,
	}
}

// Config converts a design point into a chip configuration under the
// constraint set.
func (cs Constraints) Config(p Point) chip.Config {
	return chip.Config{
		Name: p.String(), TechNM: cs.TechNM, ClockHz: cs.ClockHz,
		Tx: p.Tx, Ty: p.Ty,
		Core: chip.CoreConfig{
			NumTUs: p.N, TURows: p.X, TUCols: p.X, TUDataType: maclib.Int8,
			HasSU: true,
			Mem: []chip.MemSegment{{
				Name: "spad", CapacityBytes: cs.MemBytes / int64(p.Tiles()),
			}},
		},
		NoCBisectionGBps: cs.NoCBisectGBps,
		OffChip:          []chip.OffChipPort{{Kind: periph.HBMPort, GBps: cs.OffChipGBps}},
		AreaBudgetMM2:    cs.AreaBudgetMM2,
		PowerBudgetW:     cs.PowerBudgetW,
	}
}

// Candidate is an evaluated, feasible design point.
type Candidate struct {
	Point Point
	Chip  *chip.Chip

	PeakTOPS       float64
	AreaMM2        float64
	TDPW           float64
	PeakTOPSPerW   float64
	PeakTOPSPerTCO float64
}

// gridShapes enumerates Tx x Ty grids with power-of-two dimensions where
// Tx == Ty or Tx == Ty/2 (the paper's square-ish layout rule). The bounds
// divide instead of multiplying, so no maxTiles can overflow them: tx stays
// at or below the square root of maxTiles, and there are at most 63 shapes.
func gridShapes(maxTiles int) [][2]int {
	var out [][2]int
	for tx := 1; tx <= maxTiles/tx; tx *= 2 {
		for _, ty := range []int{tx, 2 * tx} {
			if ty <= maxTiles/tx {
				out = append(out, [2]int{tx, ty})
			}
		}
	}
	return out
}

// sweepPoints lists the full (X, N, Tx, Ty) sweep in its deterministic
// enumeration order — the order candidate indices refer to.
func (cs Constraints) sweepPoints() []Point {
	var pts []Point
	for _, x := range cs.XChoices {
		for _, n := range cs.NChoices {
			for _, g := range gridShapes(cs.MaxTiles) {
				pts = append(pts, Point{X: x, N: n, Tx: g[0], Ty: g[1]})
			}
		}
	}
	return pts
}

// EnumerateCtx sweeps the (X, N, Tx, Ty) space, builds every candidate,
// and prunes the ones that exceed the area/power budgets or the peak-TOPS
// upper bound (§III-A.1: points beyond the budget or with extremely low
// performance are pruned; core count is swept up to the feasibility edge).
// It runs under a span over the sweep, with a chip.build child span per
// point it builds (attribute point), pruning counters and debug-level
// progress logging.
// chip.Build converts model-stack panics to guard.ErrCandidatePanic, so a
// single broken design point cannot take down the sweep — it is counted,
// logged at warn level, and pruned. Cancelling ctx stops the enumeration
// early; the candidates built so far are returned. Evaluation runs on a
// single worker; use EnumerateParallel to fan out.
func EnumerateCtx(ctx context.Context, cs Constraints) []Candidate {
	return EnumerateParallel(ctx, cs, 1)
}

// EnumerateParallel is EnumerateCtx fanned out across a bounded worker
// pool (DefaultWorkers = GOMAXPROCS). Builds are memoized through
// chip.BuildCached — repeated enumerations and the figure drivers'
// reference points share one build per distinct configuration — and
// results are collected by sweep index, so the returned candidate list is
// identical to the serial path's for any worker count.
func EnumerateParallel(ctx context.Context, cs Constraints, workers int) []Candidate {
	ctx, span := obs.Start(ctx, "dse.enumerate")
	defer span.End()
	span.SetInt("workers", int64(resolveWorkers(workers)))
	points := cs.sweepPoints()
	results := make([]*Candidate, len(points))
	var tried atomic.Int64
	interrupted := runPool(ctx, len(points), workers, func(i int) {
		p := points[i]
		mEnumerated.Inc()
		if n := tried.Add(1); n%progressEvery == 0 {
			slog.DebugContext(ctx, "dse: enumerate progress",
				"tried", n, "total", len(points))
		}
		peak := 2 * float64(p.X) * float64(p.X) * float64(p.N) *
			float64(p.Tiles()) * cs.ClockHz / 1e12
		// Prune over-cap and extremely low performance points early.
		if peak > cs.TOPSCap*1.001 || peak < cs.TOPSCap/32 {
			mPruned.Inc()
			return
		}
		_, bspan := obs.Start(ctx, "chip.build")
		if bspan != nil {
			bspan.SetStr("point", p.String())
		}
		c, err := chip.BuildCached(cs.Config(p))
		bspan.End()
		if err != nil {
			mPruned.Inc()
			if errors.Is(err, guard.ErrCandidatePanic) {
				mEvalPanics.Inc()
				slog.WarnContext(ctx, "dse: candidate build panicked (recovered)",
					"point", p.String(), "err", err)
			}
			return // over budget, timing-infeasible, or broken
		}
		mFeasible.Inc()
		results[i] = &Candidate{
			Point:          p,
			Chip:           c,
			PeakTOPS:       c.PeakTOPS(),
			AreaMM2:        c.AreaMM2(),
			TDPW:           c.TDPW(),
			PeakTOPSPerW:   c.PeakTOPSPerWatt(),
			PeakTOPSPerTCO: c.PeakTOPSPerTCO(),
		}
	})
	var out []Candidate
	for _, r := range results {
		if r != nil {
			out = append(out, *r)
		}
	}
	if interrupted != nil {
		slog.WarnContext(ctx, "dse: enumerate interrupted",
			"tried", tried.Load(), "feasible", len(out), "err", interrupted)
	}
	sort.Slice(out, func(i, j int) bool { return candidateLess(out[i], out[j]) })
	span.SetInt("tried", tried.Load())
	span.SetInt("feasible", int64(len(out)))
	slog.DebugContext(ctx, "dse: enumerate done", "tried", tried.Load(), "feasible", len(out))
	return out
}

// candidateLess reports whether a precedes b in the order of every
// candidate list dse returns: peak TOPS descending (NaN last), then X
// descending, then tiles ascending.
func candidateLess(a, b Candidate) bool {
	if c := cmpDesc(a.PeakTOPS, b.PeakTOPS); c != 0 {
		return c < 0
	}
	if a.Point.X != b.Point.X {
		return a.Point.X > b.Point.X
	}
	return a.Point.Tiles() < b.Point.Tiles()
}

// cmpDesc orders a before b (negative) when a is larger, with NaN always
// last. Raw float comparators break sort transitivity in the presence of
// NaN (every comparison is false), which can scramble an entire sort; this
// comparator keeps the order total.
func cmpDesc(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return 0
}

// Frontier returns the candidates in the order of every candidate list
// dse returns (peak TOPS descending, NaN last; then X descending; then
// tiles ascending). Enumeration already returns that order, so Frontier is
// only needed for lists assembled some other way.
//
// Fig. 8's x-axis bins peak TOPS at (0.6, 1.001], (0.3, 0.6], (0.15, 0.3]
// and (0.075, 0.15] x TOPSCap, with everything lower in a fifth bin, and
// the paper keeps one representative per (X, N, bin). That reduction would
// change nothing the figures show, so it is not done. gridShapes makes
// only power-of-two grids with Ty = Tx or Ty = 2*Tx, so for fixed (X, N)
// every grid has its own power-of-two tile count and peak TOPS doubles
// from one grid to the next. Each of the first four bins spans a ratio of
// at most 2 with one end open, so it holds at most one grid per (X, N).
// The fifth, (TOPSCap/32, 0.075 x TOPSCap], can hold two, but it lies
// wholly below SecondRound's TOPSCap/12 floor. So whenever the X and N
// choices hold no duplicates (NewStudy rejects them), SecondRound of the
// reduced set equals SecondRound of the whole feasible set; at Table I no
// bin holds two points at all, and Fig. 8 shows all 60.
func Frontier(cands []Candidate, topsCap float64) []Candidate {
	out := append([]Candidate(nil), cands...)
	sort.Slice(out, func(i, j int) bool { return candidateLess(out[i], out[j]) })
	return out
}

// SecondRound applies the paper's second-round pruning before the runtime
// study: design points with extremely low peak performance are dropped.
// The paper's own verdict is that the 4x4 class delivers under 1/12 of the
// target peak at comparable area, so both the TOPS floor and the 4x4 class
// itself are excluded (our softer area model would otherwise let very large
// 4x4 grids reach higher peaks than the paper's did).
func SecondRound(cands []Candidate, topsCap float64) []Candidate {
	var out []Candidate
	for _, c := range cands {
		// A NaN PeakTOPS fails the >= comparison, so corrupted candidates
		// are dropped here rather than carried into the runtime study.
		if c.PeakTOPS >= topsCap/12 && c.Point.X >= 8 {
			out = append(out, c)
		}
	}
	return out
}

// BatchSpec selects the batch regime of a runtime study: a fixed batch
// size, or the largest batch meeting a latency bound (the paper's 10ms SLO
// "medium batch").
type BatchSpec struct {
	Fixed        int     // used when > 0
	LatencyBound float64 // seconds; used when Fixed == 0
}

func (b BatchSpec) String() string {
	if b.Fixed > 0 {
		return fmt.Sprintf("bs=%d", b.Fixed)
	}
	return fmt.Sprintf("bs=latency<%.0fms", b.LatencyBound*1e3)
}

// RuntimeRow aggregates a candidate's runtime metrics over the workload set
// (Fig. 10 format): arithmetic-mean achieved TOPS, geometric-mean
// utilization and efficiencies (§III-B.2's averaging conventions).
type RuntimeRow struct {
	Point        Point
	PeakTOPS     float64
	AchievedTOPS float64 // arithmetic mean
	Utilization  float64 // geometric mean
	PowerW       float64 // arithmetic mean
	TOPSPerWatt  float64 // geometric mean
	TOPSPerTCO   float64 // geometric mean
	// Batches records the batch size used per workload (differs under a
	// latency bound).
	Batches []int
}

// Hardening configures the execution envelope of a runtime study. The zero
// value means: one worker and no result store. The caller's ctx is the one
// deadline a study has.
type Hardening struct {
	// Workers bounds the evaluation pool: <= 1 (and the zero value) runs
	// candidates serially on the caller's goroutine — the historical
	// behavior — and DefaultWorkers resolves to GOMAXPROCS. Results are
	// collected by candidate index, so output is byte-identical across
	// worker counts.
	Workers int
	// Results, when non-nil, is the persistent content-addressed result
	// store: pending candidates are looked up (fully verified — envelope
	// checksum, fingerprint match, finite metrics) before any evaluation
	// is scheduled, and each computed row is then written best effort.
	// Store faults of every kind degrade to evaluation, so a study runs
	// byte-identically with a cold, warm, poisoned, or absent store. A nil
	// Cache (including rstore.NewCache(nil)) disables all of this.
	//
	// The store is also how an interrupted study resumes: rerun it with
	// the same store, and the candidates that completed come back as hits
	// while only the rest are simulated.
	Results *rstore.Cache
}

// outcome is one candidate's resolved result, held in an index-addressed
// slice until assembly so output order never depends on completion order.
type outcome struct {
	row  RuntimeRow
	err  error
	done bool // resolved (false = skipped by cancellation)
}

// RuntimeStudyHardened simulates every candidate on the workload set under
// the batch regime and aggregates the four Fig. 10 metrics, inside a
// configurable robustness envelope and an optional worker pool
// (Hardening.Workers). It runs under a span over the study, a child span
// per candidate (nesting the per-graph simulation spans), an eval-latency
// histogram, and progress logging.
//
// Per candidate it recovers panics (guard.ErrCandidatePanic) and rejects
// rows with non-finite aggregates. A failing candidate does not abort the
// sweep: its error is counted in dse.candidate_failures, logged, and the
// candidate is skipped; the joined failures are returned only when every
// candidate failed. A canceled sweep ctx, or one past its deadline, stops
// new evaluations, lets in-flight workers unwind, and returns the rows
// completed so far along with the classified cause (guard.ErrCanceled /
// guard.ErrTimeout).
//
// Determinism: rows and failures are assembled in candidate order whatever
// the worker count, and each candidate's evaluation is single-threaded —
// so a parallel, a serial, and a rerun-on-the-same-store run of the same
// study all emit byte-identical output.
func RuntimeStudyHardened(ctx context.Context, cands []Candidate, models []*graph.Graph, spec BatchSpec, opt perfsim.Options, h Hardening) ([]RuntimeRow, error) {
	return oneRegime(runtimeStudy(ctx, cands, models, []BatchSpec{spec}, opt, h))
}

// oneRegime reduces runtimeStudy's answer for one batch regime to
// RuntimeStudyHardened's.
func oneRegime(rows [][]RuntimeRow, failed []error, err error) ([]RuntimeRow, error) {
	if err == nil {
		err = failed[0]
	}
	return rows[0], err
}

// runtimeStudy is RuntimeStudyHardened over several batch regimes in one
// pass: each pool item is one candidate, which evaluates its row for every
// regime the result store does not already hold. A candidate's rows share
// one perfsim.Ladder per model, so a simulation two regimes need — batch 1
// for a fixed batch-1 regime and the bottom of a latency ladder — runs
// once. Each row keeps the whole per-candidate envelope of
// RuntimeStudyHardened: its own store entry, span, injection site, finite
// check and panic recovery.
//
// The models are prepared only when some row is missing from the store,
// so a study the store fully satisfies prepares nothing.
//
// rows[s] holds specs[s]'s rows in candidate order. An interrupted study
// returns every regime's completed rows and the classified cause as err.
// Otherwise failed[s] is non-nil, with the joined failures, when every
// candidate failed under specs[s], and rows[s] is then nil.
func runtimeStudy(ctx context.Context, cands []Candidate, models []*graph.Graph, specs []BatchSpec, opt perfsim.Options, h Hardening) (rows [][]RuntimeRow, failed []error, err error) {
	return runStudy(ctx, cands, modelNames(models), prepareGraphs(models), specs, opt, h)
}

// runStudy is runtimeStudy over models named names, which sim prepares.
func runStudy(ctx context.Context, cands []Candidate, names []string, sim func() *studySim, specs []BatchSpec, opt perfsim.Options, h Hardening) (rows [][]RuntimeRow, failed []error, err error) {
	ctx, span := obs.Start(ctx, "dse.runtime-study")
	defer span.End()
	specNames := make([]string, len(specs))
	for s, spec := range specs {
		specNames[s] = spec.String()
	}
	specName := strings.Join(specNames, " ")
	span.SetStr("spec", specName)
	span.SetInt("candidates", int64(len(cands)))
	span.SetInt("workers", int64(resolveWorkers(h.Workers)))

	// Store phase: satisfy rows from the persistent result store before
	// any evaluation is scheduled; only candidates with a missing row
	// enter the pool.
	outs := make([][]outcome, len(specs))
	fps := make([][]string, len(specs))
	for s := range specs {
		outs[s] = make([]outcome, len(cands))
		fps[s] = make([]string, len(cands))
	}
	var pending []int
	hits := 0
	for i, cand := range cands {
		missing := false
		var cfgFP string
		if h.Results != nil {
			cfgFP = cand.Chip.Cfg.Fingerprint()
		}
		for s, spec := range specs {
			if h.Results != nil {
				fps[s][i] = candidateFingerprint(cfgFP, names, spec, opt)
				if row, ok := lookupStoredRow(ctx, h.Results, fps[s][i], cand.Point); ok {
					outs[s][i] = outcome{row: row, done: true}
					hits++
					continue
				}
			}
			missing = true
		}
		if missing {
			pending = append(pending, i)
		}
	}
	if h.Results != nil {
		span.SetInt("store_hits", int64(hits))
	}

	// One simulation context for the whole study: every workload is
	// prepared once, before any worker starts, then shared read-only by
	// all workers — the per-candidate hot path never re-parses a graph.
	var ss *studySim
	if len(pending) > 0 {
		ss = sim()
	}
	var completed atomic.Int64
	poolErr := runPool(ctx, len(pending), h.Workers, func(pi int) {
		i := pending[pi]
		cand := cands[i]
		ladders := ladderPool.Get().(*[]perfsim.Ladder)
		defer ladderPool.Put(ladders)
		*ladders = slices.Grow((*ladders)[:0], len(names))[:len(names)]
		for mi, p := range ss.prepared {
			(*ladders)[mi].Reset(p, cand.Chip, opt)
		}
		for s, spec := range specs {
			if outs[s][i].done || guard.CtxErr(ctx) != nil {
				continue
			}
			cctx, cspan := obs.Start(ctx, "dse.candidate")
			if cspan != nil {
				cspan.SetStr("point", cand.Point.String())
				cspan.SetStr("spec", specNames[s])
			}
			evalStart := time.Now()
			row, err := evalCandidate(cctx, cand, ss, *ladders, spec)
			if err == nil && h.Results != nil {
				storeRow(h.Results, fps[s][i], row)
			}
			mEvalLatency.Observe(time.Since(evalStart).Seconds())
			cspan.End()
			// A canceled sweep ctx surfaces as the candidate's error too;
			// treat it as an interruption, not a candidate failure — the
			// row stays un-done and evaluates when the study is rerun.
			if err != nil && guard.CtxErr(ctx) != nil {
				return
			}
			outs[s][i] = outcome{row: row, err: err, done: true}
			if err != nil {
				mEvalFailures.Inc()
				if errors.Is(err, guard.ErrCandidatePanic) {
					mEvalPanics.Inc()
				}
				slog.WarnContext(cctx, "dse: candidate failed, skipping",
					"point", cand.Point.String(), "spec", specNames[s], "kind", guard.Kind(err), "err", err)
			}
		}
		if n := completed.Add(1); n%progressEvery == 0 || n == int64(len(pending)) {
			slog.DebugContext(ctx, "dse: runtime study progress",
				"done", n, "total", len(pending), "spec", specName)
		}
	})

	// Assemble in candidate order — identical to the serial walk.
	rows = make([][]RuntimeRow, len(specs))
	failed = make([]error, len(specs))
	for s := range specs {
		var failures []error
		for i := range outs[s] {
			o := &outs[s][i]
			if !o.done {
				continue
			}
			if o.err != nil {
				failures = append(failures, o.err)
				continue
			}
			rows[s] = append(rows[s], o.row)
		}
		if len(rows[s]) == 0 && len(failures) > 0 {
			failed[s] = fmt.Errorf("dse: runtime study: all %d candidates failed: %w",
				len(cands), errors.Join(failures...))
		}
	}
	if poolErr != nil {
		slog.WarnContext(ctx, "dse: runtime study interrupted",
			"pending", len(pending), "total", len(cands), "err", poolErr)
	}
	return rows, failed, poolErr
}

// studySim is the simulation context one study shares across all of its
// candidate evaluations: every workload prepared exactly once, so the
// per-candidate hot path runs straight into the closed forms. Immutable
// once made and safe for any number of concurrent workers.
//
// A model that fails Prepare keeps its error instead, and every candidate
// fails on that model with it.
type studySim struct {
	names      []string
	prepared   []*perfsim.Prepared
	prepareErr []error
}

// prepareGraphs returns the studySim maker of a study over caller-owned
// graphs: each call prepares every graph.
func prepareGraphs(models []*graph.Graph) func() *studySim {
	return func() *studySim {
		s := &studySim{
			names:      modelNames(models),
			prepared:   make([]*perfsim.Prepared, len(models)),
			prepareErr: make([]error, len(models)),
		}
		for i, g := range models {
			s.prepared[i], s.prepareErr[i] = perfsim.Prepare(g)
		}
		return s
	}
}

// ladderPool recycles the per-candidate Ladders, one per model, each reset
// for the candidate it evaluates, so the steady state of a study allocates
// nothing for its simulations.
var ladderPool = sync.Pool{New: func() any { return new([]perfsim.Ladder) }}

// evalCandidate simulates one candidate over the workload set and
// aggregates its Fig. 10 row. ladders[mi] is model mi's Ladder, reset for
// the candidate's chip. Panics anywhere below are converted to
// guard.ErrCandidatePanic; the aggregated row is finite-checked before it
// can reach a frontier or CSV. The steady state of a sweep allocates only
// the row's Batches slice.
func evalCandidate(ctx context.Context, cand Candidate, sim *studySim, ladders []perfsim.Ladder, spec BatchSpec) (row RuntimeRow, err error) {
	defer guard.RecoverTo(&err)
	if ierr := guard.Inject(ctx, "dse.candidate"); ierr != nil {
		return RuntimeRow{}, fmt.Errorf("dse: candidate %s: %w", cand.Point, ierr)
	}
	row = RuntimeRow{Point: cand.Point, PeakTOPS: cand.PeakTOPS}
	nModels := float64(len(sim.names))
	utilProd, wEffProd, cEffProd := 1.0, 1.0, 1.0
	for mi, name := range sim.names {
		var res *perfsim.Result
		batch, serr := spec.Fixed, sim.prepareErr[mi]
		if serr == nil {
			if batch > 0 {
				res, serr = ladders[mi].Simulate(ctx, batch)
			} else {
				batch, res, serr = ladders[mi].LatencyLimited(ctx, spec.LatencyBound)
			}
		}
		if serr != nil {
			return RuntimeRow{}, fmt.Errorf("dse: candidate %s on model %q (%s): %w",
				cand.Point, name, spec, serr)
		}
		e := cand.Chip.Efficiency(res.AchievedTOPS*1e12, res.Activity)
		row.AchievedTOPS += res.AchievedTOPS / nModels
		row.PowerW += e.PowerW / nModels
		utilProd *= res.Utilization
		wEffProd *= e.TOPSPerWatt
		cEffProd *= e.TOPSPerTCO
		row.Batches = append(row.Batches, batch)
	}
	inv := 1.0 / nModels
	row.Utilization = math.Pow(utilProd, inv)
	row.TOPSPerWatt = math.Pow(wEffProd, inv)
	row.TOPSPerTCO = math.Pow(cEffProd, inv)
	if ferr := guard.CheckFinites(
		"achieved_tops", row.AchievedTOPS, "utilization", row.Utilization,
		"power_w", row.PowerW, "tops_per_w", row.TOPSPerWatt, "tops_per_tco", row.TOPSPerTCO,
	); ferr != nil {
		return RuntimeRow{}, fmt.Errorf("dse: candidate %s: %w", cand.Point, ferr)
	}
	return row, nil
}

// Winner returns the row maximizing the metric. Rows whose metric is NaN
// never win; if no row has a comparable metric the error wraps
// guard.ErrNonFinite.
func Winner(rows []RuntimeRow, metric func(RuntimeRow) float64) (RuntimeRow, error) {
	if len(rows) == 0 {
		return RuntimeRow{}, guard.Invalid("dse: no rows")
	}
	var best RuntimeRow
	found := false
	for _, r := range rows {
		m := metric(r)
		if math.IsNaN(m) {
			continue
		}
		if !found || m > metric(best) {
			best, found = r, true
		}
	}
	if !found {
		return RuntimeRow{}, fmt.Errorf("dse: all %d rows have NaN metrics: %w",
			len(rows), guard.ErrNonFinite)
	}
	return best, nil
}

// Metric selectors for Winner.
func ByAchievedTOPS(r RuntimeRow) float64 { return r.AchievedTOPS }
func ByUtilization(r RuntimeRow) float64  { return r.Utilization }
func ByTOPSPerWatt(r RuntimeRow) float64  { return r.TOPSPerWatt }
func ByTOPSPerTCO(r RuntimeRow) float64   { return r.TOPSPerTCO }

// DefaultModels returns the Table II workloads.
func DefaultModels() []*graph.Graph { return workloads.All() }
