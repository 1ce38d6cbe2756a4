package perfsim

import (
	"context"
	"fmt"
	"math"
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
	// mLayerEvals counts closed-form evaluations: one per shape class a
	// simulation reaches, at most one per layer.
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
// of g, named from g. The ctx deadline is honored between layers (a
// canceled or expired ctx aborts the simulation with
// guard.ErrCanceled/ErrTimeout), and the headline result metrics are
// finite-checked before returning so NaN/Inf never escapes into sweeps.
//
// SimulateCtx validates and prepares g on every call. When the layers are
// not needed, or when evaluating many chips against one workload, Prepare
// the graph once and use (*Prepared).SimulateInto or SimulateBatch, which
// amortize that cost and reuse result scratch; both produce bit-identical
// headline metrics.
func SimulateCtx(ctx context.Context, c *chip.Chip, g *graph.Graph, batch int, opt Options) (res *Result, err error) {
	defer guard.RecoverTo(&err)
	if c == nil {
		return nil, guard.Invalid("perfsim: nil chip")
	}
	if g == nil {
		return nil, guard.Invalid("perfsim: nil graph")
	}
	if batch <= 0 {
		return nil, guard.Invalid("perfsim: batch must be positive, got %d", batch)
	}
	if err := guard.Inject(ctx, "perfsim.simulate"); err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "perfsim.simulate")
	defer span.End()
	span.SetStr("graph", g.Name)
	span.SetInt("batch", int64(batch))
	p, err := Prepare(g)
	if err != nil {
		return nil, err
	}
	res = &Result{Layers: make([]LayerStat, 0, len(g.Layers))}
	if err := simulateInto(ctx, c, p, batch, opt, res, g); err != nil {
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
// in SimulateBatch's zero-allocation check.
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

// simulateInto is the shared simulation core. It fully overwrites *res
// (reusing the Layers backing array) and allocates nothing on the steady
// state when detail is nil. A non-nil detail is the graph p was prepared
// from, and asks for per-layer spans and LayerStat records named from its
// layers: the detailed single-candidate path (SimulateCtx). The batch and
// sweep paths accumulate through locals. Both modes execute the same closed
// forms in the same order, so headline metrics are bit-identical between
// them.
//
// The closed forms run once per shape class (see prep.go), on the class's
// first layer, when the walk over the layers reaches it; every layer then
// adds its class's values to the running sums in graph order. The deadline
// check and the perfsim.layer injection site stay per layer.
func simulateInto(ctx context.Context, c *chip.Chip, p *Prepared, batch int, opt Options, res *Result, detail *graph.Graph) (err error) {
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
	act := chip.Activity{ClockGateIdleFrac: 0.5}
	var totalMACs, totalVecOps float64
	// streamMACs counts cell-cycles actually clocked through the arrays,
	// including padded tiles and fill/drain bubbles: the energy-relevant
	// quantity (a 64x64 array computing a 10-row stripe still clocks all
	// 4096 cells). This is the mechanism behind the paper's observation
	// that runtime energy efficiency favors smaller arrays (§III-B.2).
	var streamMACs float64
	var memRead, memWrite, nocBytes, hbmBytes float64

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
	// actually evaluated, early error returns and panics included. Classes
	// are numbered in order of first appearance, so the walk first reaches
	// class k when evals == k.
	walked, evals := 0, int32(0)
	defer func() {
		mLayers.Add(int64(walked))
		mLayerEvals.Add(int64(evals))
	}()

	// Deadline checks gate on the Done channel: nil for non-cancelable
	// contexts (skip entirely), and a lock-free poll otherwise —
	// guard.CtxErr (which classifies via context.Cause, taking a mutex)
	// runs only once the context is actually dead, returning the identical
	// error it always did.
	done := ctx.Done()
	for li, k := range p.class {
		// Deadline check per layer: analytical layers are cheap, so this is
		// the granularity at which a per-candidate timeout can actually
		// interrupt a simulation.
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
		cv := &vals[k]
		if k == evals {
			e.evalClass(&p.vals[k], cv)
			evals++
		}
		totalMACs += cv.macs
		streamMACs += cv.streamMACs
		memRead += cv.memRead
		memWrite += cv.memWrite
		nocBytes += cv.nocBytes
		hbmBytes += cv.hbmBytes
		totalVecOps += cv.vops
		res.Cycles += cv.cycles
		walked++
		if detail != nil {
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
	}
	mSimulations.Inc()

	batchF, cores := e.batchF, e.cores
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

// evalClass runs the per-layer closed forms on lv, a shape class's
// representative layer, overwriting every field of *cv. Layers of other
// kinds than the one evaluated carry zeros in the fields their path does
// not set; adding those zeros to the running sums changes no bit.
func (e *simEnv) evalClass(lv *layerVals, cv *classVals) {
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

		kt := math.Ceil(kF / x)
		nt := math.Ceil(nF / x)
		tiles := kt * nt

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
		coresA := fmin(cores, nt)
		ntc := math.Ceil(nt / coresA)
		roundsA := math.Ceil(ntc * kt / tuPerCore)
		compA := roundsA*(mF+bubble) + oneTime
		// Intra-core K-splits accumulate in the core's accumulator
		// buffer (the TPU pattern): no VU cost.
		vuA := 0.0
		bcastA := 0.0
		if coresA > 1 {
			bcastA = mF * kF * mulBytes // activations, one crossing
		}
		nocA := bcastA / nocBPC
		energyA := mF * kF * mulBytes * (coresA - 1) * multicastShare
		tusA := fmin(coresA*tuPerCore, tiles)

		// ---- B: K+N split across cores (inter-core psum merging) ------
		var compB float64
		if tiles >= totalTUs {
			compB = math.Ceil(tiles/totalTUs)*(mF+bubble) + oneTime
		} else {
			share := math.Floor(totalTUs / tiles)
			compB = math.Ceil(mF/share) + bubble + oneTime
		}
		kSplit := fmin(kt, fmax(1, math.Floor(totalTUs/nt)))
		coresK := math.Ceil(kSplit / tuPerCore)
		// Every K-split pair produces a full M x N partial-sum tensor
		// that must be summed; the cross-core fraction rides the NoC.
		mergeB := fmax(0, kSplit-1) * mF * nF * accBytes *
			(coresK - 1) / fmax(coresK, 1)
		bcastB := 0.0
		if fmin(cores, tiles) > 1 {
			bcastB = mF * kF * mulBytes
		}
		vuB := fmax(0, kSplit-1) * mF * nF / lanes
		nocB := (mergeB + bcastB) / nocBPC
		energyB := mergeB + mF*kF*mulBytes*(fmin(cores, tiles)-1)*multicastShare
		coresB := fmin(cores, tiles)
		tusB := fmin(totalTUs, tiles*fmax(1, math.Floor(totalTUs/tiles)))

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
		coresM := 1.0
		bestT := math.Inf(1)
		for n := 1.0; n <= coresMax; n *= 2 {
			spatial := fmax(1, n/batchF)
			if t := math.Ceil(mF/n) * (1 + haloPerCore*(spatial-1)); t < bestT {
				bestT, coresM = t, n
			}
		}
		spatialM := fmax(1, coresM/batchF)
		mc := math.Ceil(mF/coresM) * (1 + haloPerCore*(spatialM-1))
		roundsC := math.Ceil(tiles / tuPerCore)
		compC := roundsC*(mc+bubble) + oneTime
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
		*cv = classVals{
			cycles: compute + overhead, compute: compute, overhead: overhead,
			macs: macs, vops: vops,
			// Imperfect row gating clocks ~2x the active cells.
			streamMACs: compute * totalTUs * fmin(x*x*2/kk, x*x),
			memRead:    lv.inBytes * batchF,
			memWrite:   lv.outBytes * batchF,
			mapping:    mapDepthwise,
		}
		return
	}
	// Vector-mapped layer (pool, eltwise, softmax, ...). XLA-style fusion
	// folds most elementwise work into the producing matrix op's output
	// stream, so only ~a quarter of the lane time is exposed, and fused ops
	// skip the full launch cost.
	vu := vops / (lanes * 2 * 0.5) // dual-issue lanes, stride/halo efficiency
	overhead := launchCycles*0.3 + syncPerCore*cores*0.25
	*cv = classVals{
		cycles: vu*0.25 + overhead, vu: vu, overhead: overhead,
		macs: macs, vops: vops,
		memRead:  lv.inBytes * batchF,
		memWrite: lv.outBytes * batchF,
		mapping:  mapVector,
	}
}

// LatencyLimitedBatch finds the largest power-of-two batch whose batch
// latency stays within the bound (the paper's "latency limited batch size",
// §III-B.2, with a 10 ms production SLO). It returns the batch and its
// simulation result; batch 1 is returned even if it misses the bound.
func LatencyLimitedBatch(c *chip.Chip, g *graph.Graph, latencyBound float64, opt Options) (int, *Result, error) {
	return LatencyLimitedBatchCtx(context.Background(), c, g, latencyBound, opt)
}

// LatencyLimitedBatchCtx is LatencyLimitedBatch threading a span context
// through the underlying simulations.
func LatencyLimitedBatchCtx(ctx context.Context, c *chip.Chip, g *graph.Graph, latencyBound float64, opt Options) (int, *Result, error) {
	return LatencyLimitedSearch(latencyBound, func(batch int) (*Result, error) {
		return SimulateCtx(ctx, c, g, batch, opt)
	})
}

// LatencyLimitedMaxBatch is the largest batch the latency-limited search
// probes.
const LatencyLimitedMaxBatch = 512

// LatencyLimitedSearch is the search behind LatencyLimitedBatch with the
// simulation left to the caller: probe(batch) returns the simulation of
// one batch size. It probes batch 1, then doubles up to
// LatencyLimitedMaxBatch, stopping at the first batch whose latency
// exceeds the bound, and returns the last batch within it together with
// that batch's Result (batch 1 even if it misses the bound). A probe error
// ends the search with that error.
//
// The search holds on to the best Result while it probes the next batch,
// so probe must not reuse one Result for two batch sizes. A caller may
// answer probes from a memo of simulations it already holds.
func LatencyLimitedSearch(latencyBound float64, probe func(batch int) (*Result, error)) (int, *Result, error) {
	best, err := probe(1)
	if err != nil {
		return 0, nil, err
	}
	batch := 1
	for b := 2; b <= LatencyLimitedMaxBatch; b *= 2 {
		r, err := probe(b)
		if err != nil {
			return 0, nil, err
		}
		if r.LatencySec > latencyBound {
			break
		}
		batch, best = b, r
	}
	return batch, best, nil
}
