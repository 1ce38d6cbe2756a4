package perfsim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// simulateOracle is the reference simulator the shape-class path is checked
// against: the per-layer loop that prepares and evaluates every closed form
// on every layer of g, with no classes and no scratch. It bumps no
// counters. Any change to a closed form in evalClass or simulateInto must
// be mirrored here, and TestClassedMatchesOracle then pins the two bit for
// bit.
func simulateOracle(ctx context.Context, c *chip.Chip, g *graph.Graph, batch int, opt Options, res *Result, detail bool) (err error) {
	defer guard.RecoverTo(&err)
	core := c.Core
	if core.TU == nil {
		return guard.Invalid("perfsim: chip %q has no tensor units (RT chips use the sparse roofline model)", c.Cfg.Name)
	}

	x := float64(core.Cfg.TUCols)
	tuPerCore := float64(core.Cfg.NumTUs)
	cores := float64(c.Tiles())
	totalTUs := tuPerCore * cores
	lanes := float64(core.Cfg.VULanes) * cores
	mulBytes := float64(core.Cfg.TUDataType.Bits()) / 8
	accBytes := 4.0

	// Bandwidths in bytes per cycle.
	nocBPC := c.Cfg.NoCBisectionGBps * 1e9 / c.ClockHz()
	if nocBPC <= 0 || cores == 1 {
		nocBPC = math.Inf(1) // single core: no NoC crossing
	}
	hbmBPC := offChipGBps(c) * 1e9 / c.ClockHz()
	if hbmBPC <= 0 {
		hbmBPC = math.Inf(1)
	}
	memBytes := float64(0)
	if core.Mem != nil {
		memBytes = float64(core.Mem.CapacityBytes()) * cores
	}
	weightsResident := float64(g.Params()) <= memBytes*0.85

	layers := res.Layers[:0]
	*res = Result{Batch: batch, Layers: layers}
	batchF := float64(batch)
	act := chip.Activity{ClockGateIdleFrac: 0.5}
	var totalMACs, totalVecOps float64
	// streamMACs counts cell-cycles actually clocked through the arrays,
	// including padded tiles and fill/drain bubbles: the energy-relevant
	// quantity (a 64x64 array computing a 10-row stripe still clocks all
	// 4096 cells). This is the mechanism behind the paper's observation
	// that runtime energy efficiency favors smaller arrays (§III-B.2).
	var streamMACs float64
	var memRead, memWrite, nocBytes, hbmBytes float64

	// Chip-level constants hoisted out of the layer loop; each is exactly
	// the subexpression the per-layer forms used, so hoisting cannot change
	// a single bit of the result.
	hopCycles := c.NoC.AvgHops() * c.NoC.HopLatencyCycles()
	// Weight double buffering overlaps most of the tile switch, but
	// skewed refill still exposes ~half an array depth per round;
	// without it every round pays the full load + fill bubble.
	bubble := 3 * x // fill + drain + weight load, per round
	oneTime := 0.0
	if opt.DoubleBuffer {
		bubble = 2 * x // fill + drain; only the weight load overlaps
		oneTime = 0
	}

	// Deadline checks gate on the Done channel: nil for non-cancelable
	// contexts (skip entirely), and a lock-free poll otherwise —
	// guard.CtxErr (which classifies via context.Cause, taking a mutex)
	// runs only once the context is actually dead, returning the identical
	// error it always did.
	done := ctx.Done()
	for li := range g.Layers {
		lv := prepareLayer(&g.Layers[li])
		name := g.Layers[li].Name
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
		macs := lv.macs * batchF
		vops := lv.vops * batchF
		totalMACs += macs

		var cyc float64
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
			mapName, compute, noc, vu := "n-split", compA, nocA, vuA
			nocEnergy, coresUsed, tus := energyA, coresA, tusA
			bestCost := fmax(compA, nocA) + nocA*nocExposed + vuA*0.25
			if cB := fmax(compB, nocB) + nocB*nocExposed + vuB*0.25; cB < bestCost {
				mapName, compute, noc, vu = "kn-split", compB, nocB, vuB
				nocEnergy, coresUsed, tus = energyB, coresB, tusB
				bestCost = cB
			}
			if cC := fmax(compC, nocC) + nocC*nocExposed + vuC*0.25; cC < bestCost {
				mapName, compute, noc, vu = "m-split", compC, nocC, vuC
				nocEnergy, coresUsed, tus = energyC, coresM, tusC
			}
			merge, bcast := 0.0, nocEnergy
			sm := compute * tus * x * x
			streamMACs += sm

			// Off-chip: stream weights when not resident; spill activations
			// exceeding the on-chip memory.
			var hbm float64
			layerHBM := 0.0
			if !weightsResident {
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
				hopCycles
			if opt.DoubleBuffer {
				cyc = fmax(compute, fmax(noc, hbm)) + noc*nocExposed + vu*0.25 + overhead
			} else {
				cyc = compute + noc + hbm + vu + overhead
			}

			// Traffic accounting for the runtime power model.
			mrd := mF*kF*mulBytes*fmin(nt, 4) + kF*nF*mulBytes
			mwr := mF * nF * mulBytes
			memRead += mrd
			memWrite += mwr
			nocBytes += merge + bcast
			hbmBytes += layerHBM
			if detail {
				res.Layers = append(res.Layers, LayerStat{
					Name: name, Kind: lv.kind, Mapping: mapName,
					Cycles: cyc, ComputeCycles: compute, NoCCycles: noc,
					HBMCycles: hbm, VUCycles: vu, Overhead: overhead, MACs: macs,
					MemReadBytes: mrd, MemWriteBytes: mwr,
					NoCBytes: merge + bcast, HBMBytes: layerHBM, StreamMACs: sm,
				})
			}
		} else if lv.kind == graph.DepthwiseConv2D || lv.kind == graph.Pool || lv.kind == graph.GlobalPool {
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
			cyc = compute + overhead
			// Imperfect row gating clocks ~2x the active cells.
			sm := compute * totalTUs * fmin(x*x*2/kk, x*x)
			streamMACs += sm
			mrd := lv.inBytes * batchF
			mwr := lv.outBytes * batchF
			memRead += mrd
			memWrite += mwr
			if detail {
				res.Layers = append(res.Layers, LayerStat{
					Name: name, Kind: lv.kind, Mapping: "tu-depthwise",
					Cycles: cyc, ComputeCycles: compute, Overhead: overhead,
					MACs: macs, MemReadBytes: mrd, MemWriteBytes: mwr, StreamMACs: sm,
				})
			}
		} else {
			// Vector-mapped layer (pool, eltwise, softmax, ...). XLA-style
			// fusion folds most elementwise work into the producing matrix
			// op's output stream, so only ~a quarter of the lane time is
			// exposed, and fused ops skip the full launch cost.
			vu := vops / (lanes * 2 * 0.5) // dual-issue lanes, stride/halo efficiency
			overhead := launchCycles*0.3 + syncPerCore*cores*0.25
			cyc = vu*0.25 + overhead
			mrd := lv.inBytes * batchF
			mwr := lv.outBytes * batchF
			memRead += mrd
			memWrite += mwr
			if detail {
				res.Layers = append(res.Layers, LayerStat{
					Name: name, Kind: lv.kind, Mapping: "vector",
					Cycles: cyc, VUCycles: vu, Overhead: overhead,
					MemReadBytes: mrd, MemWriteBytes: mwr,
				})
			}
		}
		totalVecOps += vops
		res.Cycles += cyc
		if detail {
			_, lspan := obs.Start(ctx, "perfsim.layer")
			lspan.SetStr("layer", name)
			lspan.SetStr("mapping", res.Layers[len(res.Layers)-1].Mapping)
			lspan.SetFloat("cycles", cyc)
			lspan.SetFloat("macs", macs)
			lspan.End()
		}
	}
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
		return fmt.Errorf("perfsim: %s batch %d: %w", g.Name, batch, ferr)
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

// checkMatchesOracle simulates p, prepared from g, on c at (batch, opt)
// through the classed core, in detail mode and through SimulateInto, and
// simulates g through the oracle, and fails t unless every Result field and
// every LayerStat agree bit for bit (errors by message).
func checkMatchesOracle(t testing.TB, c *chip.Chip, g *graph.Graph, p *Prepared, batch int, opt Options) {
	t.Helper()
	ctx := context.Background()
	var want, got, fast Result
	wantErr := simulateOracle(ctx, c, g, batch, opt, &want, true)
	gotErr := simulateInto(ctx, c, p, batch, opt, &got, g)
	fastErr := p.SimulateInto(ctx, c, batch, opt, &fast)
	where := fmt.Sprintf("%s on %s batch %d %+v", g.Name, c.Cfg.Name, batch, opt)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || fmt.Sprint(fastErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: errors diverge: detail %v, headline %v, oracle %v", where, gotErr, fastErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if path, ok := bitsEqual(reflect.ValueOf(got), reflect.ValueOf(want), "Result"); !ok {
		t.Fatalf("%s: detail result diverges from the oracle at %s", where, path)
	}
	want.Layers = want.Layers[:0]
	if path, ok := bitsEqual(reflect.ValueOf(fast), reflect.ValueOf(want), "Result"); !ok {
		t.Fatalf("%s: headline result diverges from the oracle at %s", where, path)
	}
}

// bitsEqual compares a and b field by field, floats by their bits (so -0
// differs from +0 and equal NaNs match). It returns the path of the first
// difference.
func bitsEqual(a, b reflect.Value, path string) (string, bool) {
	switch a.Kind() {
	case reflect.Float64:
		return path, math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if p, ok := bitsEqual(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); !ok {
				return p, false
			}
		}
		return "", true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return path + " (length)", false
		}
		for i := 0; i < a.Len(); i++ {
			if p, ok := bitsEqual(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); !ok {
				return p, false
			}
		}
		return "", true
	case reflect.String:
		return path, a.String() == b.String()
	case reflect.Int:
		return path, a.Int() == b.Int()
	}
	panic("bitsEqual: unhandled kind " + a.Kind().String() + " at " + path)
}
