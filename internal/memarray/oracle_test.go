package memarray_test

// The reference search below is the organization optimizer as it stood
// before the subarray tables and circuit.Repeater: it re-derives every
// subarray term for every bank count and evaluates each repeated bus from
// the Node. It is kept only to check that Build returns the same
// organization and the same six metrics, bit for bit.

import (
	"context"
	"math"
	"testing"

	"neurometer/internal/chip"
	"neurometer/internal/circuit"
	"neurometer/internal/dse"
	"neurometer/internal/memarray"
	"neurometer/internal/pat"
	"neurometer/internal/tech"
)

const (
	refConflictMargin = 1.0
	refMaxBanks       = 4096
)

var (
	refSearchPorts = []int{1, 2, 3, 4}
	refSubDims     = [...]int{16, 32, 64, 128, 256, 512, 1024}
)

func refSearchBanks() []int {
	var out []int
	for v := 1; v <= refMaxBanks; v *= 2 {
		out = append(out, v)
	}
	return out
}

// refOrgPAT mirrors the optimizer's candidate score.
type refOrgPAT struct {
	areaUM2  float64
	readPJ   float64
	writePJ  float64
	leakUW   float64
	accessPS float64
	cyclePS  float64
}

func (p *refOrgPAT) cost() float64 { return p.areaUM2 * (p.readPJ + p.writePJ) }

// refValid reports whether Build accepts cfg for the search at all.
func refValid(cfg *memarray.Config) bool {
	for _, v := range []float64{cfg.CyclePS, cfg.ReadBytesPerCycle, cfg.WriteBytesPerCycle, cfg.TargetLatencyPS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return cfg.CapacityBytes > 0 && cfg.BlockBytes > 0 &&
		int64(cfg.BlockBytes) <= cfg.CapacityBytes && cfg.CyclePS > 0
}

// refBuild is Build's search over a valid config.
func refBuild(cfg memarray.Config) (refOrgPAT, memarray.Org, bool) {
	bankChoices := refSearchBanks()
	if cfg.Banks > 0 {
		bankChoices = []int{cfg.Banks}
	}
	readChoices := refSearchPorts
	if cfg.ReadPorts > 0 {
		readChoices = []int{cfg.ReadPorts}
	}
	writeChoices := refSearchPorts
	if cfg.WritePorts > 0 {
		writeChoices = []int{cfg.WritePorts}
	}

	o := refNewOptimizer(&cfg)
	var best refOrgPAT
	var bestOrg memarray.Org
	var bestCost float64
	found := false
	for _, banks := range bankChoices {
		if int64(banks)*int64(cfg.BlockBytes) > cfg.CapacityBytes {
			break
		}
		scored := false
		for _, rp := range readChoices {
			for _, wp := range writeChoices {
				if !refMeetsThroughput(&cfg, banks, rp, wp) || (scored && cfg.TargetLatencyPS <= 0) {
					continue
				}
				scored = true
				p, org, ok := o.evaluate(banks, rp, wp)
				if !ok {
					continue
				}
				if cfg.TargetLatencyPS > 0 && p.accessPS > cfg.TargetLatencyPS {
					continue
				}
				cost := p.cost()
				if !found || cost < bestCost {
					best, bestOrg, bestCost, found = p, org, cost, true
				}
			}
		}
	}
	return best, bestOrg, found
}

func refMeetsThroughput(cfg *memarray.Config, banks, rp, wp int) bool {
	perPort := float64(banks * cfg.BlockBytes) // bytes per cycle per port
	need := (cfg.ReadBytesPerCycle) * refConflictMargin
	if float64(rp)*perPort < need {
		return false
	}
	needW := (cfg.WriteBytesPerCycle) * refConflictMargin
	return float64(wp)*perPort >= needW
}

func refPortAreaFactor(cell tech.MemCell, totalPorts int) float64 {
	if totalPorts <= 1 {
		return 1
	}
	extra := float64(totalPorts - 1)
	if cell == tech.CellDFF {
		return 1 + 0.15*extra
	}
	return (1 + 0.45*extra) * (1 + 0.25*extra)
}

type refOptimizer struct {
	cfg *memarray.Config
	n   *tech.Node

	totalBits, blockBits float64
	cellAreaUM2          float64
	cellW, cellH         float64
	cellLeakUW           float64
	invRonOhm            float64
	gateAreaUM2          float64
	latchAreaUM2         float64

	dec [len(refSubDims)]pat.Result

	wl, bus refWire
}

func refNewOptimizer(cfg *memarray.Config) refOptimizer {
	n := &cfg.Node
	o := refOptimizer{
		cfg:         cfg,
		n:           n,
		totalBits:   float64(cfg.CapacityBytes) * 8,
		blockBits:   float64(cfg.BlockBytes) * 8,
		cellAreaUM2: n.CellAreaUM2(cfg.Cell),
		invRonOhm:   n.InvRonOhm(),
		gateAreaUM2: n.GateAreaUM2(),
	}
	o.cellW, o.cellH = n.CellDimsUM(cfg.Cell)
	o.cellLeakUW = o.totalBits * n.CellLeakNW(cfg.Cell) / 1000
	o.latchAreaUM2 = o.blockBits * circuit.DFF{Node: *n}.Eval().AreaUM2
	for i, rows := range refSubDims {
		o.dec[i] = circuit.Decoder{Node: *n, Outputs: rows}.Eval()
	}
	o.wl = refWire{Node: *n, Layer: tech.WireLocal, DriverRes: o.invRonOhm / 16}
	o.bus = refWire{Node: *n, Layer: tech.WireIntermediate, Bits: int(o.blockBits)}
	return o
}

func (o *refOptimizer) evaluate(banks, rp, wp int) (best refOrgPAT, org memarray.Org, ok bool) {
	bankBits := o.totalBits / float64(banks)
	ports := rp + wp
	bp := refBankPorts{banks: banks, rp: rp, wp: wp}

	bp.cellArea = o.cellAreaUM2 * refPortAreaFactor(o.cfg.Cell, ports)
	pf := math.Sqrt(refPortAreaFactor(o.cfg.Cell, ports))
	bp.cellW = o.cellW * pf
	bp.cellH = o.cellH * pf

	bankCtlGates := 800 + 60*math.Log2(bankBits)
	bp.ctlArea, bp.ctlDynPJ, bp.ctlLeakUW = o.n.LogicBlock(bankCtlGates, 0.3)

	var bestCost float64
	for ri, rows := range refSubDims {
		for _, cols := range refSubDims {
			subBits := float64(rows * cols)
			if subBits > bankBits {
				break
			}
			subsPerBank := math.Ceil(bankBits / subBits)
			activeSubs := math.Ceil(o.blockBits / float64(cols))
			if activeSubs > subsPerBank {
				continue
			}
			p, fits := o.evalOrg(&bp, ri, cols, int(subsPerBank), int(activeSubs))
			if !fits {
				continue
			}
			cost := p.cost()
			if !ok || cost < bestCost {
				best, bestCost, ok = p, cost, true
				org = memarray.Org{
					Banks: banks, ReadPorts: rp, WritePorts: wp,
					SubarrayRows: rows, SubarrayCols: cols, SubarraysPerBank: int(subsPerBank),
				}
			}
		}
	}
	return best, org, ok
}

type refBankPorts struct {
	banks, rp, wp                int
	cellArea, cellW, cellH       float64
	ctlArea, ctlDynPJ, ctlLeakUW float64
}

func (o *refOptimizer) evalOrg(bp *refBankPorts, ri, cols, subsPerBank, activeSubs int) (refOrgPAT, bool) {
	n := o.n
	rows := refSubDims[ri]
	banks, rp, wp := bp.banks, bp.rp, bp.wp
	cellArea, cellW, cellH := bp.cellArea, bp.cellW, bp.cellH

	// ---- Subarray level -------------------------------------------------
	dec := &o.dec[ri]
	wlWire := &o.wl
	wlWire.LengthMM = float64(cols) * cellW / 1000
	wlWire.LoadFF = float64(cols) * 0.18 // gate cap of pass transistors
	wlDelay := wlWire.ElmoreDelayPS()

	blLen := float64(rows) * cellH / 1000
	blCap := n.WireCapFFPerMM[tech.WireLocal]*blLen + float64(rows)*0.10
	cellRes := o.invRonOhm * 25
	blDelay := cellRes * blCap * 1e-15 * 1e12 * 0.35 // reduced swing sensing

	senseDelay := 3 * n.FO4PS
	subAccessPS := dec.DelayPS + wlDelay + blDelay + senseDelay
	cyclePS := subAccessPS * 1.1 // bank busy time; H-trees are pipelined
	if cyclePS > o.cfg.CyclePS*2.05 {
		return refOrgPAT{}, false
	}

	wlEnergy := wlWire.Eval().DynPJ
	const senseSwing = 0.25
	blEnergyPerCol := blCap * n.Vdd * n.Vdd * senseSwing / 1000 // pJ

	subCellsArea := float64(rows*cols) * cellArea
	perColGates := 14.0 * float64(rp+wp)
	perRowGates := 4.0 * float64(rp+wp)
	periphGates := float64(cols)*perColGates + float64(rows)*perRowGates
	periphArea := periphGates * o.gateAreaUM2
	subArea := (subCellsArea + periphArea + dec.AreaUM2) * 1.18 // routing channels

	// ---- Bank level ------------------------------------------------------
	bankArea := subArea * float64(subsPerBank)
	bankSideMM := math.Sqrt(bankArea) / 1000
	const shield = 1.4
	portPaths := float64(rp + wp)
	o.bus.LengthMM = bankSideMM * 0.5
	htreeRes, _ := o.bus.Repeated()
	htreeArea := htreeRes.AreaUM2 * shield * portPaths
	htreeEnergy := htreeRes.DynPJ // per access on one port
	htreeDelay := htreeRes.DelayPS
	htreeLeak := htreeRes.LeakUW * portPaths

	bankTotalArea := (bankArea+htreeArea+bp.ctlArea)*1.08 + // bank assembly
		o.latchAreaUM2

	// ---- Array level -----------------------------------------------------
	cellsOnly := bankTotalArea * float64(banks)
	arraySideMM := math.Sqrt(cellsOnly) / 1000
	o.bus.LengthMM = arraySideMM * 0.35
	edgeRes, _ := o.bus.Repeated()
	edgeArea := edgeRes.AreaUM2 * shield * portPaths
	totalArea := cellsOnly + edgeArea

	// ---- Per-access energy ----------------------------------------------
	active := float64(activeSubs)
	readPJ := dec.DynPJ*active + wlEnergy*active +
		blEnergyPerCol*float64(cols)*active +
		htreeEnergy + edgeRes.DynPJ + bp.ctlDynPJ
	writePJ := dec.DynPJ*active + wlEnergy*active +
		blEnergyPerCol*float64(cols)*active*(1.0/senseSwing)*0.5 +
		htreeEnergy + edgeRes.DynPJ + bp.ctlDynPJ

	// ---- Leakage ---------------------------------------------------------
	leakUW := o.cellLeakUW +
		periphGates*float64(subsPerBank*banks)*n.GateLeakNW/1000 +
		bp.ctlLeakUW*float64(banks) +
		(htreeLeak+edgeRes.LeakUW)*float64(banks)

	return refOrgPAT{
		areaUM2:  totalArea,
		readPJ:   readPJ,
		writePJ:  writePJ,
		leakUW:   leakUW,
		accessPS: subAccessPS + htreeDelay + edgeRes.DelayPS,
		cyclePS:  cyclePS,
	}, true
}

// refWire is circuit.Wire's arithmetic as the reference search used it.
type refWire struct {
	Node      tech.Node
	Layer     tech.WireLayer
	LengthMM  float64
	DriverRes float64
	LoadFF    float64
	Bits      int
}

func (w *refWire) ElmoreDelayPS() float64 { return w.elmorePS(w.LengthMM, w.DriverRes) }

func (w *refWire) elmorePS(lengthMM, driverRes float64) float64 {
	rw := w.Node.WireResOhmPerMM[w.Layer] * lengthMM
	cw := w.Node.WireCapFFPerMM[w.Layer] * lengthMM * 1e-15
	cl := w.LoadFF * 1e-15
	rd := driverRes
	if rd <= 0 {
		rd = w.Node.InvRonOhm() / 8 // default 8x driver
	}
	return (rd*(cw+cl) + rw*(cw/2+cl)) * 1e12
}

func (w *refWire) wireEnergyPJPerBit(lengthMM float64) float64 {
	cw := w.Node.WireCapFFPerMM[w.Layer] * lengthMM
	return (cw + w.LoadFF) * w.Node.Vdd * w.Node.Vdd / 1000 // fF*V^2 -> pJ
}

func (w *refWire) wirePitchUM() float64 {
	f := float64(w.Node.Nm) / 1000 // feature size in um
	switch w.Layer {
	case tech.WireLocal:
		return 4 * f
	case tech.WireIntermediate:
		return 8 * f
	default:
		return 16 * f
	}
}

func (w *refWire) Eval() pat.Result { return w.evalAt(w.LengthMM, w.DriverRes) }

func (w *refWire) evalAt(lengthMM, driverRes float64) pat.Result {
	bits := w.Bits
	if bits <= 0 {
		bits = 1
	}
	return pat.Result{
		AreaUM2: w.wirePitchUM() * lengthMM * 1000 * float64(bits),
		DynPJ:   w.wireEnergyPJPerBit(lengthMM) * float64(bits),
		LeakUW:  0,
		DelayPS: w.elmorePS(lengthMM, driverRes),
	}
}

func (w *refWire) Repeated() (pat.Result, bool) {
	rw := w.Node.WireResOhmPerMM[w.Layer]
	cw := w.Node.WireCapFFPerMM[w.Layer] * 1e-15
	r0 := w.Node.InvRonOhm()
	c0 := w.Node.InvCinFF() * 1e-15
	lcrit := math.Sqrt(2 * r0 * c0 / (rw * cw)) // in mm
	if w.LengthMM <= lcrit {
		return w.Eval(), false
	}
	nseg := math.Ceil(w.LengthMM / lcrit)
	segRes := w.evalAt(w.LengthMM/nseg, 0)
	bits := float64(max(w.Bits, 1))
	repArea := 24 * w.Node.GateAreaUM2()
	repEnergy := 24 * w.Node.GateEnergyFJ / 1000 // pJ per switch
	repLeak := 24 * w.Node.GateLeakNW / 1000
	out := pat.Result{
		AreaUM2: segRes.AreaUM2*nseg + repArea*nseg*bits,
		DynPJ:   segRes.DynPJ*nseg + repEnergy*nseg*bits,
		LeakUW:  repLeak * nseg * bits,
		DelayPS: segRes.DelayPS * nseg,
	}
	return out, true
}

// tableIArrays returns the config of every scratchpad and vector-register
// array the chips of a cold Table I enumeration are built with.
func tableIArrays(t *testing.T) []memarray.Config {
	t.Helper()
	chip.ResetBuildCache()
	cands := dse.EnumerateCtx(context.Background(), dse.TableI())
	if len(cands) == 0 {
		t.Fatal("Table I enumeration built no chips")
	}
	var out []memarray.Config
	for _, c := range cands {
		core := c.Chip.Core
		if core.Mem == nil {
			t.Fatalf("%s: no scratchpad", c.Point)
		}
		for _, seg := range core.Mem.Segments {
			out = append(out, seg.Data.Cfg)
		}
		out = append(out, core.VU.VReg().Cfg)
	}
	return out
}

// TestBuildMatchesReferenceSearch checks Build against the reference
// search, bit for bit, over the golden grid and every array a Table I
// enumeration builds.
func TestBuildMatchesReferenceSearch(t *testing.T) {
	tableI := tableIArrays(t)
	caps, blocks, reads := map[int64]bool{}, map[int]bool{}, map[float64]bool{}
	for _, cfg := range tableI {
		if cfg.Cell == tech.CellSRAM && cfg.Banks == 0 {
			caps[cfg.CapacityBytes] = true
			blocks[cfg.BlockBytes] = true
			reads[cfg.ReadBytesPerCycle] = true
		}
	}
	// Table I: 32 MiB split over 1..128 tiles, X from 16 to 256 (one
	// block of X bytes), and N in {1, 2, 4} tensor units per core.
	if len(caps) != 8 || !blocks[16] || !blocks[256] || len(reads) < 3 {
		t.Fatalf("Table I scratchpads cover %d capacities, blocks %v, %d read rates; want 8 capacities, blocks 16..256 B and the N in {1,2,4} rates",
			len(caps), blocks, len(reads))
	}

	checked := 0
	for _, cfg := range append(memarray.GoldenConfigs(), tableI...) {
		a, err := memarray.Build(cfg)
		if !refValid(&cfg) {
			if err == nil {
				t.Errorf("%+v: Build accepted an invalid config", cfg)
			}
			continue
		}
		want, org, ok := refBuild(cfg)
		if !ok {
			if err == nil {
				t.Errorf("%s %dB blk=%d: Build found %+v, the reference search nothing", cfg.Node, cfg.CapacityBytes, cfg.BlockBytes, a.Org)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s %dB blk=%d: Build failed (%v), the reference search found %+v", cfg.Node, cfg.CapacityBytes, cfg.BlockBytes, err, org)
			continue
		}
		checked++
		got := refOrgPAT{
			areaUM2: a.AreaUM2(), readPJ: a.ReadEnergyPJ(), writePJ: a.WriteEnergyPJ(),
			leakUW: a.LeakUW(), accessPS: a.AccessDelayPS(), cyclePS: a.CycleDelayPS(),
		}
		if a.Org != org || !sameBits(got, want) {
			t.Errorf("%s %s %dB blk=%d banks=%d %dR%dW: Build %+v %+v, reference %+v %+v",
				cfg.Node, cfg.Cell, cfg.CapacityBytes, cfg.BlockBytes, cfg.Banks, cfg.ReadPorts, cfg.WritePorts,
				a.Org, got, org, want)
		}
	}
	if checked < len(tableI) {
		t.Fatalf("only %d organizations compared", checked)
	}
}

func sameBits(a, b refOrgPAT) bool {
	x := [...]float64{a.areaUM2, a.readPJ, a.writePJ, a.leakUW, a.accessPS, a.cyclePS}
	y := [...]float64{b.areaUM2, b.readPJ, b.writePJ, b.leakUW, b.accessPS, b.cyclePS}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}
