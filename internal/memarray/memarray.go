// Package memarray is NeuroMeter's analytical memory-array model, in the
// CACTI tradition: SRAM/DFF/eDRAM arrays organized as banks of subarrays,
// with decoder/wordline/bitline Elmore timing, per-access energy, leakage,
// and layout area including sense amplifiers, drivers, routing channels and
// the H-tree that distributes the wide data bus across banks.
//
// The package also contains the internal organization optimizer the paper
// describes (§II "the tool will automatically set the low-level parameters
// (such as the number of banks, the number of the read/write ports) via its
// internal optimizer"): given capacity, block size, a target latency and a
// target throughput, Build searches bank counts, subarray aspect ratios and
// port counts and returns the minimum-cost feasible organization. The search
// is exact but skips candidates that provably cannot win: column-mux ratios
// above 1, and, without a latency target, every port pair of a bank count
// but the smallest one that meets the throughput.
//
// BuildCached is Build behind a process-wide memo that scores each
// bank/port organization of an array geometry once (see buildcache.go);
// the chip's components build their arrays through it. An *Array is
// immutable once built, so one instance may be shared freely across chips
// and goroutines; no caller writes its Cfg or Org.
//
// Two counters pin the optimizer's work: memarray.builds counts array
// requests (every Build and BuildCached call), memarray.evals the bank/port
// organizations actually scored, each a search of its subarray grid and the
// dominant cost of chip construction. Memo hits add to the first but not
// the second: a cold Table I enumeration makes 240 requests that score 338
// organizations.
package memarray

import (
	"fmt"
	"math"

	"neurometer/internal/circuit"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/pat"
	"neurometer/internal/tech"
)

// Observability: memarray.builds counts array requests, memarray.evals the
// bank/port organizations scored (see the package doc). Without a latency
// target a search scores at most one port pair per bank count.
var (
	mBuilds = obs.NewCounter("memarray.builds")
	mEvals  = obs.NewCounter("memarray.evals")
)

// Config specifies a memory array the way a NeuroMeter user does: high
// level parameters only. Zero values for Banks/ReadPorts/WritePorts ask the
// optimizer to choose them.
type Config struct {
	Node tech.Node
	Cell tech.MemCell

	// CapacityBytes is the total storage; BlockBytes the width of one
	// access (one port, one cycle).
	CapacityBytes int64
	BlockBytes    int

	// ReadPorts/WritePorts: dedicated port counts per bank. 0 = search.
	ReadPorts  int
	WritePorts int

	// Banks: 0 = search over powers of two.
	Banks int

	// CyclePS is the clock the array must keep up with (used for both
	// pipelining decisions and throughput accounting). Required.
	CyclePS float64

	// TargetLatencyPS: optional upper bound on random-access latency.
	TargetLatencyPS float64

	// ReadBytesPerCycle / WriteBytesPerCycle: sustained throughput the
	// array must deliver. The optimizer provisions banks*ports to cover
	// them with a bank-conflict margin.
	ReadBytesPerCycle  float64
	WriteBytesPerCycle float64
}

// Org describes the organization the optimizer settled on.
type Org struct {
	Banks            int
	ReadPorts        int
	WritePorts       int
	SubarrayRows     int
	SubarrayCols     int
	SubarraysPerBank int
}

// Array is a fully evaluated memory array.
type Array struct {
	Cfg Config
	Org Org
	orgPAT
}

// orgPAT is the power, area and timing of one candidate organization. The
// optimizer scores candidates as values; only the winner becomes an Array.
type orgPAT struct {
	areaUM2  float64
	readPJ   float64 // per BlockBytes read
	writePJ  float64
	leakUW   float64
	accessPS float64 // random access latency
	cyclePS  float64 // minimum bank cycle time
}

// cost is the optimizer's objective: the area-energy product (CACTI's
// classic objective), energy averaged over a read+write pair.
func (p *orgPAT) cost() float64 { return p.areaUM2 * (p.readPJ + p.writePJ) }

// conflictMargin over-provisions bank*port bandwidth to absorb bank
// conflicts in the banked scratchpads (software-managed layouts keep
// conflicts low, so the margin is modest).
const conflictMargin = 1.0

// maxBanks bounds the optimizer search.
const (
	maxBankLog = 12
	maxBanks   = 1 << maxBankLog
)

// Search spaces: bank counts (powers of two) and per-bank read/write port
// counts tried where the Config leaves them 0, and the subarray heights and
// widths tried for every bank/port organization.
var (
	searchBanks = powersOfTwo(1, maxBanks)
	searchPorts = [...]int{1, 2, 3, 4}
	subDims     = [...]int{16, 32, 64, 128, 256, 512, 1024}
)

// Build evaluates (and where requested, optimizes) the array organization.
func Build(cfg Config) (*Array, error) {
	mBuilds.Inc()
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	o := optimizer{cfg: &cfg}
	return o.search(nil)
}

// validate rejects the configs Build refuses to evaluate.
func validate(cfg *Config) error {
	if cfg.CapacityBytes <= 0 {
		return guard.Invalid("memarray: capacity must be positive, got %d", cfg.CapacityBytes)
	}
	if cfg.BlockBytes <= 0 {
		return guard.Invalid("memarray: block size must be positive, got %d", cfg.BlockBytes)
	}
	if int64(cfg.BlockBytes) > cfg.CapacityBytes {
		return guard.Invalid("memarray: block (%dB) exceeds capacity (%dB)", cfg.BlockBytes, cfg.CapacityBytes)
	}
	if cfg.CyclePS <= 0 {
		return guard.Invalid("memarray: CyclePS must be positive")
	}
	if err := guard.CheckFinites(
		"CyclePS", cfg.CyclePS, "ReadBytesPerCycle", cfg.ReadBytesPerCycle,
		"WriteBytesPerCycle", cfg.WriteBytesPerCycle, "TargetLatencyPS", cfg.TargetLatencyPS,
	); err != nil {
		return guard.Invalid("memarray: %v", err)
	}
	return nil
}

// search is the bank/port search of a validated o.cfg: it returns the
// cheapest organization that meets the throughput and latency targets.
// With a non-nil memo every organization is scored through it (see score).
func (o *optimizer) search(memo *geomEntry) (*Array, error) {
	cfg := o.cfg
	bankChoices := searchBanks
	if cfg.Banks > 0 {
		bankChoices = []int{cfg.Banks}
	}
	readChoices := searchPorts[:]
	if cfg.ReadPorts > 0 {
		readChoices = []int{cfg.ReadPorts}
	}
	writeChoices := searchPorts[:]
	if cfg.WritePorts > 0 {
		writeChoices = []int{cfg.WritePorts}
	}

	var best orgPAT
	var bestOrg Org
	var bestCost float64
	found := false
	for _, banks := range bankChoices {
		if int64(banks)*int64(cfg.BlockBytes) > cfg.CapacityBytes {
			// Banks smaller than one block make no sense, and bank
			// counts ascend, so no later count fits either.
			break
		}
		// Port dominance: without a latency target, only the first port
		// pair that meets the throughput is scored. meetsThroughput is
		// separable and monotone, so that pair is the smallest read and the
		// smallest write count that pass. For a fixed bank count and
		// subarray shape every area and read/write energy term (cell
		// size, peripheral gates, wordline and bitline loads, H-tree and
		// edge bus lengths and port paths) is non-decreasing in the port
		// counts, and so is the bank cycle: a shape that does not fit with
		// fewer ports does not fit with more. So no later pair costs less,
		// and ties keep the first. A latency target needs the full search:
		// a repeated wire's delay drops each time it gains a segment, so
		// access latency is not monotone in the port counts.
		scored := false
		for _, rp := range readChoices {
			for _, wp := range writeChoices {
				if !meetsThroughput(cfg, banks, rp, wp) || (scored && cfg.TargetLatencyPS <= 0) {
					continue
				}
				scored = true
				p, org, ok := o.score(memo, banks, rp, wp)
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
	if !found {
		return nil, guard.Infeasible("memarray: no feasible organization for %dB (block %dB, need %.1fR+%.1fW B/cyc, latency<=%.0fps)",
			cfg.CapacityBytes, cfg.BlockBytes, cfg.ReadBytesPerCycle, cfg.WriteBytesPerCycle, cfg.TargetLatencyPS)
	}
	return &Array{Cfg: *cfg, Org: bestOrg, orgPAT: best}, nil
}

// score returns evaluate's result for one bank/port organization, from
// memo when it holds one (memo may be nil), and records a fresh score
// there. The memo keeps the organizations of the search space; one outside
// it (a fixed bank count that is not a power of two up to maxBanks, or
// more than four ports of a kind) is scored afresh for each new demand.
// The optimizer is initialized on its first real evaluation, so a search
// answered wholly from the memo derives no constants.
func (o *optimizer) score(memo *geomEntry, banks, rp, wp int) (orgPAT, Org, bool) {
	slot := -1
	if memo != nil {
		slot = orgSlot(banks, rp, wp)
	}
	if slot >= 0 {
		if i := memo.index[slot]; i > 0 {
			return memo.orgs[i-1].result(banks, rp, wp)
		}
	}
	if !o.ready {
		o.init()
	}
	p, org, ok := o.evaluate(banks, rp, wp)
	if slot >= 0 {
		memo.orgs = append(memo.orgs, scoredOrg{
			p: p, subs: org.SubarraysPerBank,
			rows: uint16(org.SubarrayRows), cols: uint16(org.SubarrayCols), ok: ok,
		})
		memo.index[slot] = uint8(len(memo.orgs))
		memoOrgs.Add(1)
	}
	return p, org, ok
}

func meetsThroughput(cfg *Config, banks, rp, wp int) bool {
	perPort := float64(banks * cfg.BlockBytes) // bytes per cycle per port
	need := (cfg.ReadBytesPerCycle) * conflictMargin
	if float64(rp)*perPort < need {
		return false
	}
	needW := (cfg.WriteBytesPerCycle) * conflictMargin
	return float64(wp)*perPort >= needW
}

func powersOfTwo(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v *= 2 {
		out = append(out, v)
	}
	return out
}

// portAreaFactor returns the cell-area multiplier for a cell with the given
// total port count: each additional port adds a wordline (height) and a
// bitline pair (width). DFF-based register files grow far more slowly: the
// flop is shared and extra ports only add read-mux fanout.
func portAreaFactor(cell tech.MemCell, totalPorts int) float64 {
	if totalPorts <= 1 {
		return 1
	}
	extra := float64(totalPorts - 1)
	if cell == tech.CellDFF {
		return 1 + 0.15*extra
	}
	return (1 + 0.45*extra) * (1 + 0.25*extra)
}

// optimizer holds what one Build's search reuses across every candidate
// organization: node-derived constants, the row decoder of each subarray
// height, the wires whose node and layer never change, and the subarray
// terms of each total port count scored so far.
type optimizer struct {
	cfg   *Config
	ready bool // init has run

	totalBits, blockBits float64
	cellAreaUM2          float64 // one-port cell
	cellW, cellH         float64 // one-port cell, um
	cellLeakUW           float64 // all cells
	invRonOhm            float64
	gateAreaUM2          float64
	latchAreaUM2         float64 // output latch for one block

	// activeSubs[ci] is the number of subarrays subDims[ci] columns wide
	// that one block access activates.
	activeSubs [len(subDims)]float64

	dec [len(subDims)]pat.Result // indexed like subDims

	// wl is the subarray wordline; a shape sets its length and load. bus
	// is the block-wide data bus, used for both the intra-bank H-tree and
	// the bank-to-port route; only its length varies, so it is kept as a
	// Repeater.
	wl  circuit.Wire
	bus circuit.Repeater

	// tables holds the subarray grids of the total port counts scored so
	// far, filled shape by shape as the search reaches them. One Build
	// scores at most 2*len(searchPorts)-1 totals: that many when both
	// port counts are searched, fewer when either is fixed.
	tables [2*len(searchPorts) - 1]subTable
}

// subTable is the subarray grid of one total port count, indexed like
// subDims (rows, then columns).
type subTable struct {
	ports        int     // 0: slot unused
	cellArea     float64 // um^2, the cell widened for the ports
	cellW, cellH float64 // um
	sub          [len(subDims)][len(subDims)]subarray
}

// subarray is what one subarray shape costs that does not depend on the
// bank count: the bank cycle test, the subarray access time, the wordline
// and bitline energies, the peripheral gates and the subarray area.
type subarray struct {
	state       uint8 // subUnknown, subFits or subTooSlow
	accessPS    float64
	cyclePS     float64
	wlPJ        float64 // wordline energy per activation
	blPJ        float64 // sensed bitline energy, all columns
	periphGates float64
	areaUM2     float64 // cells, peripherals and decoder, with routing
}

const (
	subUnknown uint8 = iota
	subFits
	subTooSlow
)

// senseSwing is the bitline swing of a sensed read; writes swing fully.
const senseSwing = 0.25

// init derives the search's constants from o.cfg. The caller sets cfg in
// a composite literal, so the optimizer and its config stay on its stack.
func (o *optimizer) init() {
	cfg := o.cfg
	n := &cfg.Node
	o.totalBits = float64(cfg.CapacityBytes) * 8
	o.blockBits = float64(cfg.BlockBytes) * 8
	o.cellAreaUM2 = n.CellAreaUM2(cfg.Cell)
	o.invRonOhm = n.InvRonOhm()
	o.gateAreaUM2 = n.GateAreaUM2()
	o.cellW, o.cellH = n.CellDimsUM(cfg.Cell)
	o.cellLeakUW = o.totalBits * n.CellLeakNW(cfg.Cell) / 1000
	// One output latch per block bit, however many subarrays supply the
	// block: the latch area does not depend on activeSubs.
	o.latchAreaUM2 = o.blockBits * circuit.DFF{Node: *n}.Eval().AreaUM2
	for i, dim := range subDims {
		o.dec[i] = circuit.Decoder{Node: *n, Outputs: dim}.Eval()
		o.activeSubs[i] = math.Ceil(o.blockBits / float64(dim))
	}
	o.wl = circuit.Wire{Node: *n, Layer: tech.WireLocal, DriverRes: o.invRonOhm / 16}
	bus := circuit.Wire{Node: *n, Layer: tech.WireIntermediate, Bits: int(o.blockBits)}
	o.bus = bus.Repeater()
	o.ready = true
}

// table returns the subarray grid of a total port count, taking a free
// slot for a count not seen before.
func (o *optimizer) table(ports int) *subTable {
	for i := range o.tables {
		t := &o.tables[i]
		if t.ports == ports {
			return t
		}
		if t.ports == 0 {
			t.ports = ports
			t.cellArea = o.cellAreaUM2 * portAreaFactor(o.cfg.Cell, ports)
			pf := math.Sqrt(portAreaFactor(o.cfg.Cell, ports))
			t.cellW = o.cellW * pf
			t.cellH = o.cellH * pf
			return t
		}
	}
	panic("memarray: more total port counts than subarray tables")
}

// shape returns subarray shape (subDims[ri], subDims[ci]) of the table,
// working it out on first use.
func (o *optimizer) shape(t *subTable, ri, ci int) *subarray {
	s := &t.sub[ri][ci]
	if s.state != subUnknown {
		return s
	}
	n := &o.cfg.Node
	rows, cols := subDims[ri], subDims[ci]
	dec := &o.dec[ri]

	wlWire := &o.wl
	wlWire.LengthMM = float64(cols) * t.cellW / 1000
	wlWire.LoadFF = float64(cols) * 0.18 // gate cap of pass transistors
	wl := wlWire.Eval()

	// Bitline: discharge through the cell; the cell is a weak driver
	// (~25x unit inverter resistance); sensing uses a reduced swing.
	blLen := float64(rows) * t.cellH / 1000
	blCap := n.WireCapFFPerMM[tech.WireLocal]*blLen + float64(rows)*0.10
	cellRes := o.invRonOhm * 25
	blDelay := cellRes * blCap * 1e-15 * 1e12 * 0.35 // reduced swing sensing

	senseDelay := 3 * n.FO4PS
	s.accessPS = dec.DelayPS + wl.DelayPS + blDelay + senseDelay
	s.cyclePS = s.accessPS * 1.1 // bank busy time; H-trees are pipelined
	if s.cyclePS > o.cfg.CyclePS*2.05 {
		// Bank cycle can be up to 2 cycles with pipelining; slower
		// organizations can't sustain the per-bank throughput.
		s.state = subTooSlow
		return s
	}
	s.state = subFits

	s.wlPJ = wl.DynPJ
	blEnergyPerCol := blCap * n.Vdd * n.Vdd * senseSwing / 1000 // pJ
	s.blPJ = blEnergyPerCol * float64(cols)

	// Peripheral gates per subarray: sense amps + precharge + write
	// drivers per column, wordline drivers per row.
	subCellsArea := float64(rows*cols) * t.cellArea
	perColGates := 14.0 * float64(t.ports)
	perRowGates := 4.0 * float64(t.ports)
	s.periphGates = float64(cols)*perColGates + float64(rows)*perRowGates
	periphArea := s.periphGates * o.gateAreaUM2
	s.areaUM2 = (subCellsArea + periphArea + dec.AreaUM2) * 1.18 // routing channels
	return s
}

// evaluate scores one bank/port organization: it searches the subarray grid
// and returns the cheapest subarray shape whose bank cycle keeps up with
// the clock. ok is false when no shape fits.
func (o *optimizer) evaluate(banks, rp, wp int) (best orgPAT, org Org, ok bool) {
	mEvals.Inc()
	bankBits := o.totalBits / float64(banks)
	bp := bankPorts{banks: banks, rp: rp, wp: wp}
	t := o.table(rp + wp)

	bankCtlGates := 800 + 60*math.Log2(bankBits)
	bp.ctlArea, bp.ctlDynPJ, bp.ctlLeakUW = o.cfg.Node.LogicBlock(bankCtlGates, 0.3)

	// Subarray search: rows and columns each from 16 to 1024. A column-mux
	// ratio of 1 is the only one worth scoring. A larger ratio narrows each
	// subarray's slice of the block, so it can only raise activeSubs; area,
	// the bank cycle and feasibility do not depend on it, and read/write
	// energy grow with activeSubs. So when ratio 1 does not fit no larger
	// ratio does, and when it fits it is the argmin (ties keep the first).
	var bestCost float64
	for ri, rows := range subDims {
		for ci, cols := range subDims {
			subBits := float64(rows * cols)
			if subBits > bankBits {
				break
			}
			subsPerBank := math.Ceil(bankBits / subBits)
			activeSubs := o.activeSubs[ci]
			if activeSubs > subsPerBank {
				continue
			}
			sub := o.shape(t, ri, ci)
			if sub.state != subFits {
				continue
			}
			p := o.evalOrg(&bp, sub, ri, int(subsPerBank), int(activeSubs))
			cost := p.cost()
			if !ok || cost < bestCost {
				best, bestCost, ok = p, cost, true
				org = Org{
					Banks: banks, ReadPorts: rp, WritePorts: wp,
					SubarrayRows: rows, SubarrayCols: cols, SubarraysPerBank: int(subsPerBank),
				}
			}
		}
	}
	return best, org, ok
}

// bankPorts is what evalOrg needs of the bank/port organization being
// scored: its counts and its bank controller.
type bankPorts struct {
	banks, rp, wp                int
	ctlArea, ctlDynPJ, ctlLeakUW float64
}

// evalOrg computes the PAT of one fitting subarray shape (rows subDims[ri])
// in the given bank/port organization.
func (o *optimizer) evalOrg(bp *bankPorts, sub *subarray, ri, subsPerBank, activeSubs int) orgPAT {
	dec := &o.dec[ri]
	banks, rp, wp := bp.banks, bp.rp, bp.wp

	// ---- Bank level ------------------------------------------------------
	bankArea := sub.areaUM2 * float64(subsPerBank)
	bankSideMM := math.Sqrt(bankArea) / 1000
	// Intra-bank data distribution: blockBits routed from the active
	// subarrays to the bank port on intermediate metal with shielding.
	// Each read and write port owns its own data path.
	const shield = 1.4
	portPaths := float64(rp + wp)
	htreeRes, _ := o.bus.At(bankSideMM * 0.5)
	htreeArea := htreeRes.AreaUM2 * shield * portPaths
	htreeEnergy := htreeRes.DynPJ // per access on one port
	htreeDelay := htreeRes.DelayPS
	htreeLeak := htreeRes.LeakUW * portPaths

	bankTotalArea := (bankArea+htreeArea+bp.ctlArea)*1.08 + // bank assembly
		o.latchAreaUM2

	// ---- Array level -----------------------------------------------------
	cellsOnly := bankTotalArea * float64(banks)
	arraySideMM := math.Sqrt(cellsOnly) / 1000
	// Bank-to-port routing across the array: the block bus travels on
	// average a third of the array side, regardless of which bank serves
	// the access (banks tile in 2D around the port spine).
	edgeRes, _ := o.bus.At(arraySideMM * 0.35)
	edgeArea := edgeRes.AreaUM2 * shield * portPaths
	totalArea := cellsOnly + edgeArea

	// ---- Per-access energy ----------------------------------------------
	active := float64(activeSubs)
	readPJ := dec.DynPJ*active + sub.wlPJ*active +
		sub.blPJ*active +
		htreeEnergy + edgeRes.DynPJ + bp.ctlDynPJ
	// Writes drive full-swing bitlines but skip the sense path.
	writePJ := dec.DynPJ*active + sub.wlPJ*active +
		sub.blPJ*active*(1.0/senseSwing)*0.5 +
		htreeEnergy + edgeRes.DynPJ + bp.ctlDynPJ

	// ---- Leakage ---------------------------------------------------------
	leakUW := o.cellLeakUW +
		sub.periphGates*float64(subsPerBank*banks)*o.cfg.Node.GateLeakNW/1000 +
		bp.ctlLeakUW*float64(banks) +
		(htreeLeak+edgeRes.LeakUW)*float64(banks)

	return orgPAT{
		areaUM2:  totalArea,
		readPJ:   readPJ,
		writePJ:  writePJ,
		leakUW:   leakUW,
		accessPS: sub.accessPS + htreeDelay + edgeRes.DelayPS,
		cyclePS:  sub.cyclePS,
	}
}

// AreaUM2 returns total layout area in um^2.
func (a *Array) AreaUM2() float64 { return a.areaUM2 }

// ReadEnergyPJ returns the energy of one block read.
func (a *Array) ReadEnergyPJ() float64 { return a.readPJ }

// WriteEnergyPJ returns the energy of one block write.
func (a *Array) WriteEnergyPJ() float64 { return a.writePJ }

// LeakUW returns total static leakage in uW.
func (a *Array) LeakUW() float64 { return a.leakUW }

// AccessDelayPS returns the random-access latency in ps.
func (a *Array) AccessDelayPS() float64 { return a.accessPS }

// CycleDelayPS returns the minimum per-bank cycle time in ps.
func (a *Array) CycleDelayPS() float64 { return a.cyclePS }

// Result summarizes the array as a pat.Result whose DynPJ is the average of
// one read and one write.
func (a *Array) Result() pat.Result {
	return pat.Result{
		AreaUM2: a.areaUM2,
		DynPJ:   (a.readPJ + a.writePJ) / 2,
		LeakUW:  a.leakUW,
		DelayPS: a.accessPS,
	}
}

func (a *Array) String() string {
	return fmt.Sprintf("mem[%s %dB block=%dB banks=%d %dR%dW sub=%dx%d area=%.2fmm2 rd=%.1fpJ wr=%.1fpJ lat=%.0fps]",
		a.Cfg.Cell, a.Cfg.CapacityBytes, a.Cfg.BlockBytes, a.Org.Banks,
		a.Org.ReadPorts, a.Org.WritePorts, a.Org.SubarrayRows, a.Org.SubarrayCols,
		a.areaUM2/1e6, a.readPJ, a.writePJ, a.accessPS)
}
