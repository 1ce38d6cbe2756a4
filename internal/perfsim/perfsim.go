package perfsim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// Observability: simulation and per-layer counters feed the obs default
// registry; spans record per-graph and per-layer wall time when tracing is
// enabled (no-ops otherwise).
var (
	mSimulations = obs.NewCounter("perfsim.simulations")
	mLayers      = obs.NewCounter("perfsim.layers_simulated")
	// mLayerEvals counts closed-form evaluations: one per shape class per
	// simulation, at most one per layer.
	mLayerEvals = obs.NewCounter("perfsim.layer_evals")
)

// Options toggles the software optimizations (Fig. 7's "before/after").
type Options struct {
	// SpaceToDepth folds spatial positions into the reduction dimension for
	// early layers whose channel depth underfills the array rows.
	SpaceToDepth bool
	// SpaceToBatch splits large spatial extents across cores like extra
	// batch, avoiding whole-activation broadcasts.
	SpaceToBatch bool
	// DoubleBuffer overlaps weight loading and off-chip/NoC transfers with
	// compute.
	DoubleBuffer bool
}

// DefaultOptions enables everything (the paper's "after optimization").
func DefaultOptions() Options {
	return Options{SpaceToDepth: true, SpaceToBatch: true, DoubleBuffer: true}
}

// NoOptimizations is the "before" configuration of Fig. 7.
func NoOptimizations() Options { return Options{} }

// LayerStat records the simulated execution of one layer (for one batch).
type LayerStat struct {
	Name          string
	Kind          graph.OpKind
	Cycles        float64
	ComputeCycles float64
	NoCCycles     float64
	HBMCycles     float64
	VUCycles      float64
	Overhead      float64
	MACs          float64
	Mapping       string // "n-split" | "kn-split" | "m-split" | "tu-depthwise" | "vector"
	// Per-layer traffic, for activity-trace generation.
	MemReadBytes  float64
	MemWriteBytes float64
	NoCBytes      float64
	HBMBytes      float64
	StreamMACs    float64
}

// Result is the outcome of simulating one batch through the graph.
type Result struct {
	Batch        int
	Cycles       float64
	TimeSec      float64
	LatencySec   float64 // == TimeSec (one batch in flight)
	FPS          float64
	AchievedTOPS float64
	Utilization  float64
	Activity     chip.Activity
	Layers       []LayerStat
}

// fixed per-layer costs: kernel launch/sequencing plus a per-core
// synchronization term — the scheduling overheads that penalize many-core
// chips at small batch.
const (
	launchCycles   = 1800.0
	syncPerCore    = 40.0
	multicastShare = 0.8 // mesh multicast saves a fifth of unicast traffic
	// dispatchPerTile is the scalar-unit sequencing cost (tile descriptor,
	// address calculation) per weight tile, serialized per core.
	dispatchPerTile = 8.0
	// nocExposed is the fraction of inter-core transfer time that cannot
	// hide behind compute even with double buffering (the first tile of
	// every dependency chain).
	nocExposed = 0.5
	// haloPerCore is the fractional recompute/transfer overhead each
	// additional core adds when the spatial dimension is split (halo rows
	// of the convolution window).
	haloPerCore = 0.08
)

// Simulate runs one batch of g through c.
func Simulate(c *chip.Chip, g *graph.Graph, batch int, opt Options) (*Result, error) {
	return SimulateCtx(context.Background(), c, g, batch, opt)
}

// SimulateCtx is Simulate with observability and robustness, and the one
// path that records per-layer detail: it opens a span per graph (child of
// any span in ctx) and a child span per layer carrying the mapping decision
// and cycle breakdown, and fills Result.Layers with one LayerStat per layer
// of g, named from g. The detail is recorded in a per-layer pass, which
// also honors the ctx deadline between layers (a canceled or expired ctx
// aborts the simulation with guard.ErrCanceled/ErrTimeout), and the
// headline result metrics are finite-checked before returning so NaN/Inf
// never escapes into sweeps.
//
// SimulateCtx validates and prepares g on every call. When the layers are
// not needed, or when evaluating many chips or batches against one
// workload, Prepare the graph once and simulate it through a Binding
// ((*Binding).SimulateInto, into caller-owned scratch) or a Ladder (a memo
// by power-of-two batch), which amortize that cost and produce
// bit-identical headline metrics.
func SimulateCtx(ctx context.Context, c *chip.Chip, g *graph.Graph, batch int, opt Options) (res *Result, err error) {
	defer guard.RecoverTo(&err)
	p, err := Prepare(g)
	if err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "perfsim.simulate")
	defer span.End()
	span.SetStr("graph", p.name)
	span.SetInt("batch", int64(batch))
	res = &Result{Layers: make([]LayerStat, 0, len(g.Layers))}
	var b Binding
	if err := b.simulate(ctx, p, c, batch, opt, res, g); err != nil {
		return nil, err
	}
	return res, nil
}

func nonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// fmax/fmin are branch-only max/min for the simulator's closed-form value
// domain: non-negative finite quantities or +Inf, never NaN and never -0
// (every operand is a count, a byte total, or a cycle count). On that
// domain they are bit-identical to math.Max/math.Min, without the
// function-call and NaN/±0 handling cost (math.Max is not an intrinsic on
// amd64 and showed up at ~25% of the batch inner loop).
func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func fmin(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// mapping is the tile mapping the scheduler picked for a layer. The hot
// path keeps it as a small enum (no pointer, so no write barrier when the
// class scratch is on the heap); LayerStat.Mapping carries its String.
type mapping uint8

const (
	mapNSplit mapping = iota
	mapKNSplit
	mapMSplit
	mapDepthwise
	mapVector
)

var mappingNames = [...]string{"n-split", "kn-split", "m-split", "tu-depthwise", "vector"}

func (m mapping) String() string { return mappingNames[m] }

// classVals is one shape class evaluated for one (chip, batch, options):
// what the closed forms give every layer of the class. The fields fill the
// LayerStat fields of the same meaning; macs and vops also feed the totals.
type classVals struct {
	cycles, compute, noc, hbm, vu, overhead float64
	macs, vops, streamMACs                  float64
	memRead, memWrite, nocBytes, hbmBytes   float64
	mapping                                 mapping
}

// stackClasses is how many shape classes' scratch a simulation keeps on
// its stack; every bundled workload has at most 54 classes. A pool would
// not do for these: under the race detector sync.Pool drops a quarter of
// its Puts, and a Get and Put per simulation then shows up as allocations
// in TestSimulateBatchZeroAllocs, the steady-state zero-allocation check.
const stackClasses = 64

// classScratch is the per-class scratch of a simulation whose graph has
// more than stackClasses classes. It comes from classPool, shared by every
// Prepared: a pool per Prepared would register itself with the runtime on
// first use, a cost SimulateCtx's one-shot Prepareds would pay on every
// call.
type classScratch struct{ vals []classVals }

var classPool sync.Pool

// simEnv holds what the per-layer closed forms read besides the layer
// itself: the chip-, batch- and option-level constants of one simulation.
type simEnv struct {
	opt                           Options
	batchF                        float64
	x, tuPerCore, cores, totalTUs float64
	lanes, mulBytes, accBytes     float64
	nocBPC, hbmBPC, memBytes      float64
	weightsResident               bool
	hopCycles, bubble             float64
}

// simulate is the simulation core, reading the matrix classes' tiling
// terms for (p, c) from b (see Binding). It fully overwrites *res (reusing
// the Layers backing array) and allocates nothing on the steady state when
// detail is nil. A non-nil detail is the graph p was prepared from, and asks
// for per-layer spans and LayerStat records named from its layers: the
// detailed single-candidate path (SimulateCtx). Every path executes the
// same closed forms and adds the same values in the same order, so headline
// metrics are bit-identical between them.
//
// A simulation runs in one tight pass: it evaluates the closed forms once
// per shape class (see prep.go), every class up front in class order, then
// walks the layers in graph order adding each layer's class values to
// running sums held in locals, with no call and no check per layer. The
// per-layer work — the deadline check, the perfsim.layer injection site,
// and in detail mode the LayerStats and spans — runs in a separate pass,
// and only when detail is asked for or a fault is armed somewhere
// (guard.Armed); otherwise a cancelable ctx is checked once, before the
// classes are evaluated.
//
// The perfsim.simulate injection site runs before the panic recovery, so
// a panic injected there reaches the caller; panics past it become errors.
func (b *Binding) simulate(ctx context.Context, p *Prepared, c *chip.Chip, batch int, opt Options, res *Result, detail *graph.Graph) (err error) {
	if c == nil {
		return guard.Invalid("perfsim: nil chip")
	}
	if batch <= 0 {
		return guard.Invalid("perfsim: batch must be positive, got %d", batch)
	}
	if err := guard.Inject(ctx, "perfsim.simulate"); err != nil {
		return err
	}
	defer guard.RecoverTo(&err)
	core := c.Core
	if core.TU == nil {
		return guard.Invalid("perfsim: chip %q has no tensor units (RT chips use the sparse roofline model)", c.Cfg.Name)
	}

	e := simEnv{
		opt:       opt,
		batchF:    float64(batch),
		x:         float64(core.Cfg.TUCols),
		tuPerCore: float64(core.Cfg.NumTUs),
		cores:     float64(c.Tiles()),
		mulBytes:  float64(core.Cfg.TUDataType.Bits()) / 8,
		accBytes:  4.0,
	}
	e.totalTUs = e.tuPerCore * e.cores
	e.lanes = float64(core.Cfg.VULanes) * e.cores

	// Bandwidths in bytes per cycle.
	e.nocBPC = c.Cfg.NoCBisectionGBps * 1e9 / c.ClockHz()
	if e.nocBPC <= 0 || e.cores == 1 {
		e.nocBPC = math.Inf(1) // single core: no NoC crossing
	}
	e.hbmBPC = c.OffChipGBps() * 1e9 / c.ClockHz()
	if e.hbmBPC <= 0 {
		e.hbmBPC = math.Inf(1)
	}
	if core.Mem != nil {
		e.memBytes = float64(core.Mem.CapacityBytes()) * e.cores
	}
	e.weightsResident = p.params <= e.memBytes*0.85

	// Chip-level constants hoisted out of the layer loop; each is exactly
	// the subexpression the per-layer forms used, so hoisting cannot change
	// a single bit of the result.
	e.hopCycles = c.NoC.AvgHops() * c.NoC.HopLatencyCycles()
	// Weight double buffering overlaps most of the tile switch, but
	// skewed refill still exposes ~half an array depth per round;
	// without it every round pays the full load + fill bubble.
	e.bubble = 3 * e.x // fill + drain + weight load, per round
	if opt.DoubleBuffer {
		e.bubble = 2 * e.x // fill + drain; only the weight load overlaps
	}

	layers := res.Layers[:0]
	*res = Result{Batch: batch, Layers: layers}

	var stack [stackClasses]classVals
	vals := stack[:]
	if len(p.vals) > len(stack) {
		s, _ := classPool.Get().(*classScratch)
		if s == nil || cap(s.vals) < len(p.vals) {
			s = &classScratch{vals: make([]classVals, len(p.vals))}
		}
		defer classPool.Put(s)
		vals = s.vals
	}
	vals = vals[:len(p.vals)]
	// The counters cover the layers actually walked and the classes
	// actually evaluated, early error returns and panics included.
	walked, evals := 0, 0
	defer func() {
		mLayers.Add(int64(walked))
		mLayerEvals.Add(int64(evals))
	}()

	perLayer := detail != nil || guard.Armed()
	// The deadline check gates on the Done channel: nil for non-cancelable
	// contexts (skip entirely), and a lock-free poll otherwise —
	// guard.CtxErr (which classifies via context.Cause, taking a mutex)
	// runs only once the context is actually dead.
	if done := ctx.Done(); done != nil && !perLayer {
		select {
		case <-done:
			return guard.CtxErr(ctx)
		default:
		}
	}
	terms := b.bind(p, c, &e)
	for k := range vals {
		e.evalClass(&p.vals[k], &vals[k], &terms[k])
		evals++
	}
	if perLayer {
		if err := layerPass(ctx, p, vals, res, detail, &walked); err != nil {
			return err
		}
	}

	// streamMACs counts cell-cycles actually clocked through the arrays,
	// including padded tiles and fill/drain bubbles: the energy-relevant
	// quantity (a 64x64 array computing a 10-row stripe still clocks all
	// 4096 cells). This is the mechanism behind the paper's observation
	// that runtime energy efficiency favors smaller arrays (§III-B.2).
	var cycles, totalMACs, totalVecOps, streamMACs float64
	var memRead, memWrite, nocBytes, hbmBytes float64
	for _, k := range p.class {
		cv := &vals[k]
		totalMACs += cv.macs
		streamMACs += cv.streamMACs
		memRead += cv.memRead
		memWrite += cv.memWrite
		nocBytes += cv.nocBytes
		hbmBytes += cv.hbmBytes
		totalVecOps += cv.vops
		cycles += cv.cycles
	}
	walked = len(p.class)
	mSimulations.Inc()

	batchF, cores := e.batchF, e.cores
	res.Cycles = cycles
	res.TimeSec = res.Cycles / c.ClockHz()
	res.LatencySec = res.TimeSec
	res.FPS = batchF / res.TimeSec
	ops := 2 * totalMACs
	res.AchievedTOPS = guard.CorruptFloat("perfsim.achieved_tops", ops/res.TimeSec/1e12)
	res.Utilization = res.AchievedTOPS / c.PeakTOPS()
	// Finite-check the headline metrics. The common all-finite case is
	// decided with plain comparisons (guard.CheckFinites boxes its variadic
	// float64 pairs into interfaces, which allocates); the guard call runs
	// only on failure so the returned error is byte-identical to the
	// historical path.
	if nonFinite(res.Cycles) || nonFinite(res.TimeSec) || nonFinite(res.FPS) ||
		nonFinite(res.AchievedTOPS) || nonFinite(res.Utilization) {
		ferr := guard.CheckFinites(
			"cycles", res.Cycles, "time_sec", res.TimeSec, "fps", res.FPS,
			"achieved_tops", res.AchievedTOPS, "utilization", res.Utilization,
		)
		return fmt.Errorf("perfsim: %s batch %d: %w", p.name, batch, ferr)
	}

	// Padded/bubble cell-cycles carry zeros: they burn clock and control
	// but toggle little datapath (~30% of a live MAC).
	act := chip.Activity{ClockGateIdleFrac: 0.5}
	effectiveMACs := totalMACs + 0.3*fmax(0, streamMACs-totalMACs)
	act.TUMACsPerSec = effectiveMACs / res.TimeSec
	act.VUOpsPerSec = totalVecOps / res.TimeSec
	act.SUInstrPerSec = cores * c.ClockHz() * 0.10
	act.MemReadBytesPerSec = memRead / res.TimeSec
	act.MemWriteBytesPerSec = memWrite / res.TimeSec
	act.NoCBytesPerSec = nocBytes / res.TimeSec
	act.OffChipBytesPerSec = hbmBytes / res.TimeSec
	res.Activity = act
	return nil
}

// layerPass is a simulation's per-layer pass, run when detail is asked for
// or a fault is armed: for each layer in graph order it checks the ctx
// deadline, hits the perfsim.layer injection site and, when detail is
// non-nil, appends the layer's LayerStat to res.Layers and records its
// span. vals holds the evaluated classes. *walked counts the layers it has
// passed, so a panic at the injection site leaves the count of the layers
// before it.
func layerPass(ctx context.Context, p *Prepared, vals []classVals, res *Result, detail *graph.Graph, walked *int) error {
	done := ctx.Done()
	for li, k := range p.class {
		*walked = li
		// Deadline check per layer: the granularity at which a canceled
		// ctx can interrupt a simulation on this path.
		if done != nil {
			select {
			case <-done:
				return guard.CtxErr(ctx)
			default:
			}
		}
		if err := guard.Inject(ctx, "perfsim.layer"); err != nil {
			return err
		}
		if detail == nil {
			continue
		}
		cv := &vals[k]
		name, mapName := detail.Layers[li].Name, cv.mapping.String()
		res.Layers = append(res.Layers, LayerStat{
			Name: name, Kind: p.vals[k].kind, Mapping: mapName,
			Cycles: cv.cycles, ComputeCycles: cv.compute, NoCCycles: cv.noc,
			HBMCycles: cv.hbm, VUCycles: cv.vu, Overhead: cv.overhead, MACs: cv.macs,
			MemReadBytes: cv.memRead, MemWriteBytes: cv.memWrite,
			NoCBytes: cv.nocBytes, HBMBytes: cv.hbmBytes, StreamMACs: cv.streamMACs,
		})
		_, lspan := obs.Start(ctx, "perfsim.layer")
		lspan.SetStr("layer", name)
		lspan.SetStr("mapping", mapName)
		lspan.SetFloat("cycles", cv.cycles)
		lspan.SetFloat("macs", cv.macs)
		lspan.End()
	}
	*walked = len(p.class)
	return nil
}

// tileTerms are the tiling terms of a matrix class on a chip that depend on
// the class's GEMM K and N and the chip's array geometry alone, not on the
// batch or the options: the weight-tile grid and what mappings A, B and C
// make of it. A Binding caches them per class from the class's unfolded K.
// Space-to-Depth folding, which depends on the batch and the options,
// cannot change them: it folds only K < X/2, by at most floor(X/K), so the
// folded K still fits one array tile (ceil(K/X) stays 1) and every term
// reads the same. TestClassedMatchesOracle pins this against the per-layer
// oracle, which tiles the folded K.
type tileTerms struct {
	nt, tiles             float64
	coresA, roundsA, tusA float64
	// roundsB is mapping B's ceil(tiles/totalTUs) when tiles >= totalTUs,
	// and its share floor(totalTUs/tiles) of TUs per tile otherwise.
	roundsB                      float64
	coresB, kSplit, coresK, tusB float64
	roundsC                      float64
}

// tiling computes into t the tileTerms of a K x N weight matrix on e's
// chip.
func (e *simEnv) tiling(t *tileTerms, kF, nF float64) {
	x, tuPerCore, cores, totalTUs := e.x, e.tuPerCore, e.cores, e.totalTUs
	kt := math.Ceil(kF / x)
	t.nt = math.Ceil(nF / x)
	t.tiles = kt * t.nt
	t.coresA = fmin(cores, t.nt)
	ntc := math.Ceil(t.nt / t.coresA)
	t.roundsA = math.Ceil(ntc * kt / tuPerCore)
	t.tusA = fmin(t.coresA*tuPerCore, t.tiles)
	if t.tiles >= totalTUs {
		t.roundsB = math.Ceil(t.tiles / totalTUs)
	} else {
		t.roundsB = math.Floor(totalTUs / t.tiles)
	}
	t.coresB = fmin(cores, t.tiles)
	t.kSplit = fmin(kt, fmax(1, math.Floor(totalTUs/t.nt)))
	t.coresK = math.Ceil(t.kSplit / tuPerCore)
	t.tusB = fmin(totalTUs, t.tiles*fmax(1, math.Floor(totalTUs/t.tiles)))
	t.roundsC = math.Ceil(t.tiles / tuPerCore)
}

// Binding holds the tiling terms of one Prepared's matrix classes on one
// chip: the part of a simulation that neither the batch nor the options
// change. A caller that simulates one (Prepared, chip) pair at several
// batches — a latency-limited ladder, several batch regimes — binds it once
// and passes the Binding to every simulation of the pair. A Binding refills
// itself whenever it is used with another Prepared or chip, so it never
// serves another pair's terms; it holds both, so neither can be freed and
// its address reused while bound. The zero Binding is ready to use; a
// Binding is not safe for concurrent use.
type Binding struct {
	p     *Prepared
	c     *chip.Chip
	terms []tileTerms
}

// SimulateInto runs one batch of p on c into caller-owned scratch, reading
// the tiling terms of (p, c) from b. It fully overwrites *res (the Layers
// backing array is reused but left empty — per-layer stats are recorded
// only by SimulateCtx), allocates nothing in the steady state, and produces
// headline metrics bit-identical to SimulateCtx. res must not be nil.
func (b *Binding) SimulateInto(ctx context.Context, p *Prepared, c *chip.Chip, batch int, opt Options, res *Result) error {
	return b.simulate(ctx, p, c, batch, opt, res, nil)
}

// bind returns the tiling terms of (p, c), one per class of p, filling them
// from e (the simulation's environment on c) when b was last used with
// another pair.
func (b *Binding) bind(p *Prepared, c *chip.Chip, e *simEnv) []tileTerms {
	if b.p != p || b.c != c {
		b.terms = slices.Grow(b.terms[:0], len(p.vals))[:len(p.vals)]
		for k := range p.vals {
			if lv := &p.vals[k]; lv.isMatrix {
				e.tiling(&b.terms[k], lv.k0, lv.n0)
			}
		}
		b.p, b.c = p, c
	}
	return b.terms
}

// evalClass runs the per-layer closed forms on lv, a shape class's
// representative layer, overwriting every field of *cv. t holds the
// class's tiling terms on the simulation's chip (from a Binding). Layers of
// other kinds than the one evaluated carry zeros in the fields their path
// does not set; adding those zeros to the running sums changes no bit.
func (e *simEnv) evalClass(lv *layerVals, cv *classVals, t *tileTerms) {
	opt, batchF := e.opt, e.batchF
	x, tuPerCore, cores, totalTUs := e.x, e.tuPerCore, e.cores, e.totalTUs
	lanes, mulBytes, accBytes := e.lanes, e.mulBytes, e.accBytes
	nocBPC, hbmBPC, memBytes := e.nocBPC, e.hbmBPC, e.memBytes
	bubble, oneTime := e.bubble, 0.0
	macs := lv.macs * batchF
	vops := lv.vops * batchF

	if lv.isMatrix {
		mF, kF := lv.m0*batchF, lv.k0
		nF := lv.n0

		// Space-to-Depth: fold spatial into depth when K underfills
		// the array (early convs: K = 27..147 vs X up to 256).
		if opt.SpaceToDepth && lv.kind == graph.Conv2D && kF < x/2 && mF >= 4 {
			fold := fmin(4, math.Floor(x/kF))
			if fold >= 2 {
				kF *= fold
				mF = math.Ceil(mF / fold)
			}
		}
		nt, tiles := t.nt, t.tiles

		// The scheduler evaluates three mappings and picks the fastest,
		// mirroring TF-Sim's "advanced runtime graph scheduling". Fill
		// and drain cost one array-depth bubble per tile round (draining
		// tile i overlaps filling tile i+1). Each mapping is evaluated
		// into scalar locals — no per-layer candidate slice.

		// ---- A: N-split across cores (no inter-core psum merging) ----
		// Each core owns a slice of the output channels; partial sums
		// accumulate locally (intra-core K-splits share the core's
		// accumulators through the VReg). Inter-core parallelism is
		// therefore capped by the N-tile count: with few output-channel
		// tiles, part of the chip idles — the reason small batches
		// cannot feed many brawny cores.
		coresA := t.coresA
		compA := t.roundsA*(mF+bubble) + oneTime
		// Intra-core K-splits accumulate in the core's accumulator
		// buffer (the TPU pattern): no VU cost.
		vuA := 0.0
		bcastA := 0.0
		if coresA > 1 {
			bcastA = mF * kF * mulBytes // activations, one crossing
		}
		nocA := bcastA / nocBPC
		energyA := mF * kF * mulBytes * (coresA - 1) * multicastShare
		tusA := t.tusA

		// ---- B: K+N split across cores (inter-core psum merging) ------
		var compB float64
		if tiles >= totalTUs {
			compB = t.roundsB*(mF+bubble) + oneTime
		} else {
			compB = math.Ceil(mF/t.roundsB) + bubble + oneTime
		}
		kSplit, coresK := t.kSplit, t.coresK
		// Every K-split pair produces a full M x N partial-sum tensor
		// that must be summed; the cross-core fraction rides the NoC.
		mergeB := fmax(0, kSplit-1) * mF * nF * accBytes *
			(coresK - 1) / fmax(coresK, 1)
		coresB := t.coresB
		bcastB := 0.0
		if coresB > 1 {
			bcastB = mF * kF * mulBytes
		}
		vuB := fmax(0, kSplit-1) * mF * nF / lanes
		nocB := (mergeB + bcastB) / nocBPC
		energyB := mergeB + mF*kF*mulBytes*(coresB-1)*multicastShare
		tusB := t.tusB

		// ---- C: M-split across cores (data/spatial parallel) -----------
		// Splitting the spatial/batch dimension across cores needs halo
		// rows around every slice (Space-to-Batch keeps the halos small
		// but not free); the scheduler searches the core count that
		// balances parallelism against halo recompute.
		// Without Space-to-Batch only whole frames distribute;
		// with it, spatial slices parallelize too (at halo cost).
		coresMax := fmin(cores, batchF)
		if opt.SpaceToBatch {
			coresMax = fmin(cores, fmax(coresMax, math.Floor(mF/32)))
		}
		// Distinct frames split for free; only splits beyond the
		// batch dimension cut spatially and pay halos.
		// n is a power of two, so mF*inv is exactly mF/n; while n <=
		// batchF the halo factor is exactly 1 and is skipped.
		coresM := 1.0
		bestT := math.Inf(1)
		for n, inv := 1.0, 1.0; n <= coresMax; n, inv = n*2, inv*0.5 {
			rows := math.Ceil(mF * inv)
			if n > batchF {
				rows *= 1 + haloPerCore*(n/batchF-1)
			}
			if rows < bestT {
				bestT, coresM = rows, n
			}
		}
		spatialM := fmax(1, coresM/batchF)
		mc := math.Ceil(mF/coresM) * (1 + haloPerCore*(spatialM-1))
		compC := t.roundsC*(mc+bubble) + oneTime
		wb := 0.0
		if coresM > 1 {
			wb = kF * nF * mulBytes // weights replicate, one crossing
		}
		vuC := 0.0 // intra-core accumulation in the accumulator buffer
		nocC := wb / nocBPC
		energyC := kF * nF * mulBytes * (coresM - 1) * multicastShare
		tusC := fmin(tuPerCore, tiles) * coresM

		// Pick cheapest: cost = max(compute, noc) + noc*exposed + vu/4,
		// ties broken in A, B, C order exactly as the historical
		// candidate-slice scan did.
		mapName, compute, noc, vu := mapNSplit, compA, nocA, vuA
		nocEnergy, coresUsed, tus := energyA, coresA, tusA
		bestCost := fmax(compA, nocA) + nocA*nocExposed + vuA*0.25
		if cB := fmax(compB, nocB) + nocB*nocExposed + vuB*0.25; cB < bestCost {
			mapName, compute, noc, vu = mapKNSplit, compB, nocB, vuB
			nocEnergy, coresUsed, tus = energyB, coresB, tusB
			bestCost = cB
		}
		if cC := fmax(compC, nocC) + nocC*nocExposed + vuC*0.25; cC < bestCost {
			mapName, compute, noc, vu = mapMSplit, compC, nocC, vuC
			nocEnergy, coresUsed, tus = energyC, coresM, tusC
		}
		merge, bcast := 0.0, nocEnergy
		sm := compute * tus * x * x

		// Off-chip: stream weights when not resident; spill activations
		// exceeding the on-chip memory.
		var hbm float64
		layerHBM := 0.0
		if !e.weightsResident {
			layerHBM += kF * nF * mulBytes
		}
		actBytes := (mF*kF + mF*nF) * mulBytes
		if actBytes > memBytes*0.5 {
			layerHBM += actBytes - memBytes*0.5
		}
		hbm = layerHBM / hbmBPC

		// Bias + activation epilogues ride the per-TU output pipeline
		// (the TPU-style activation path is sized to the array drain
		// rate); only a sliver of cleanup work reaches the shared VU.
		vu += vops / lanes * 0.05

		overhead := launchCycles + syncPerCore*coresUsed +
			dispatchPerTile*tiles/fmax(coresUsed, 1) +
			e.hopCycles
		var cyc float64
		if opt.DoubleBuffer {
			cyc = fmax(compute, fmax(noc, hbm)) + noc*nocExposed + vu*0.25 + overhead
		} else {
			cyc = compute + noc + hbm + vu + overhead
		}

		// Field by field, as the matrix path sets every field (a composite
		// literal would be built on the stack and copied); memRead and
		// memWrite are the traffic accounting for the runtime power model.
		cv.cycles, cv.compute, cv.noc, cv.hbm, cv.vu, cv.overhead = cyc, compute, noc, hbm, vu, overhead
		cv.macs, cv.vops, cv.streamMACs = macs, vops, sm
		cv.memRead = mF*kF*mulBytes*fmin(nt, 4) + kF*nF*mulBytes
		cv.memWrite = mF * nF * mulBytes
		cv.nocBytes, cv.hbmBytes = merge+bcast, layerHBM
		cv.mapping = mapName
		return
	}
	if lv.kind == graph.DepthwiseConv2D || lv.kind == graph.Pool || lv.kind == graph.GlobalPool {
		// Depthwise convolutions pack block-diagonally onto the tensor
		// units: each channel is an independent (M x k^2) x (k^2 x 1)
		// GEMM, so only floor(X/k^2) diagonal blocks of k^2 cells are
		// active per pass — array efficiency ~ 1/X. Smaller arrays
		// digest depthwise layers far better (part of why wimpy designs
		// score higher utilization on NasNet); it still beats the
		// vector unit by an order of magnitude.
		// Pooling layers ride the same path: an average pool is a
		// depthwise convolution with constant weights.
		kk := lv.kk
		work := macs
		if work == 0 {
			work = vops
		}
		compute := work / (totalTUs * x * x / kk)
		overhead := launchCycles + syncPerCore*cores*0.5
		// Field by field, every field: a composite literal would be built
		// and then copied.
		cv.cycles, cv.compute, cv.noc, cv.hbm, cv.vu, cv.overhead = compute+overhead, compute, 0, 0, 0, overhead
		// Imperfect row gating clocks ~2x the active cells.
		cv.macs, cv.vops, cv.streamMACs = macs, vops, compute*totalTUs*fmin(x*x*2/kk, x*x)
		cv.memRead, cv.memWrite, cv.nocBytes, cv.hbmBytes = lv.inBytes*batchF, lv.outBytes*batchF, 0, 0
		cv.mapping = mapDepthwise
		return
	}
	// Vector-mapped layer (pool, eltwise, softmax, ...). XLA-style fusion
	// folds most elementwise work into the producing matrix op's output
	// stream, so only ~a quarter of the lane time is exposed, and fused ops
	// skip the full launch cost.
	vu := vops / (lanes * 2 * 0.5) // dual-issue lanes, stride/halo efficiency
	overhead := launchCycles*0.3 + syncPerCore*cores*0.25
	cv.cycles, cv.compute, cv.noc, cv.hbm, cv.vu, cv.overhead = vu*0.25+overhead, 0, 0, 0, vu, overhead
	cv.macs, cv.vops, cv.streamMACs = macs, vops, 0
	cv.memRead, cv.memWrite, cv.nocBytes, cv.hbmBytes = lv.inBytes*batchF, lv.outBytes*batchF, 0, 0
	cv.mapping = mapVector
}

// LatencyLimitedBatch finds the largest power-of-two batch whose batch
// latency stays within the bound (the paper's "latency limited batch size",
// §III-B.2, with a 10 ms production SLO). It returns the batch and its
// simulation result; batch 1 is returned even if it misses the bound.
//
// The graph is prepared once and the search runs on a Ladder; only the
// chosen batch runs again through SimulateCtx, so the returned Result
// carries its per-layer Layers.
func LatencyLimitedBatch(c *chip.Chip, g *graph.Graph, latencyBound float64, opt Options) (batch int, res *Result, err error) {
	defer guard.RecoverTo(&err)
	p, err := Prepare(g)
	if err != nil {
		return 0, nil, err
	}
	var l Ladder
	l.Reset(p, c, opt)
	if batch, _, err = l.LatencyLimited(context.Background(), latencyBound); err != nil {
		return 0, nil, err
	}
	if res, err = SimulateCtx(context.Background(), c, g, batch, opt); err != nil {
		return 0, nil, err
	}
	return batch, res, nil
}
