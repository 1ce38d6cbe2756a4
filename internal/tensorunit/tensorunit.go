// Package tensorunit models NeuroMeter's Tensor Unit (TU): a generic 2-D
// systolic array made of (1) systolic cells, each a MAC plus DFF/SRAM local
// buffering, (2) wires connecting nearby cells, and (3) DFF/SRAM-based I/O
// FIFOs (§II-A).
//
// Two inner-TU interconnect styles are supported, as in Fig. 2(c):
//
//   - Unicast: nearest-neighbour systolic links (TPU-v1 style), with
//     weight-stationary or output-stationary dataflow.
//   - Multicast: X/Y buses that broadcast from the I/O FIFOs to a row or
//     column of cells (Eyeriss style); the bus is decomposed into pi-RC
//     segments with per-cell taps and evaluated with the Elmore model
//     (Fig. 2(d)).
package tensorunit

import (
	"fmt"
	"math"

	"neurometer/internal/circuit"
	"neurometer/internal/maclib"
	"neurometer/internal/memarray"
	"neurometer/internal/pat"
	"neurometer/internal/tech"
)

// Interconnect selects the inner-TU interconnection style.
type Interconnect int

const (
	// Unicast is nearest-neighbour systolic forwarding (TPU-v1).
	Unicast Interconnect = iota
	// Multicast is X/Y-bus broadcast (Eyeriss).
	Multicast
)

func (i Interconnect) String() string {
	if i == Multicast {
		return "multicast"
	}
	return "unicast"
}

// Dataflow selects the systolic dataflow for unicast TUs (§II-A: "we
// support modeling of both weight-stationary and output-stationary").
type Dataflow int

const (
	WeightStationary Dataflow = iota
	OutputStationary
	// RowStationary is used to model Eyeriss-style PEs together with the
	// multicast interconnect; cells carry larger local buffers.
	RowStationary
)

func (d Dataflow) String() string {
	switch d {
	case OutputStationary:
		return "output-stationary"
	case RowStationary:
		return "row-stationary"
	}
	return "weight-stationary"
}

// Config is the user-visible TU configuration: only high-level parameters,
// per the paper's abstraction-raising goal.
type Config struct {
	Node tech.Node
	// Rows x Cols systolic cells.
	Rows, Cols int
	// MulType is the multiplier operand format; AccType the accumulator
	// format (zero value lets the tool pick MulType.AccumType()).
	MulType maclib.DataType
	AccType maclib.DataType
	// Interconnect and Dataflow select the fabric style.
	Interconnect Interconnect
	Dataflow     Dataflow
	// LocalSpadBytes / LocalRegBytes add per-cell storage beyond the
	// pipeline registers (Eyeriss: 448 B SRAM spad + 72 B registers).
	LocalSpadBytes int
	LocalRegBytes  int
	// IOFIFODepth is the depth of each row/column I/O FIFO (default 8).
	IOFIFODepth int
	// CyclePS is the target clock period, used for timing checks.
	CyclePS float64
}

// fabricOverhead accounts for place-and-route, pipeline margin and cell
// abutment overhead of the systolic fabric; calibrated against the TPU-v1
// systolic array share.
const fabricOverhead = 2.2

// clockOverhead folds the clock distribution network into the sequential
// elements' dynamic energy, following the paper's choice to amortize the
// clock network into components.
const clockOverhead = 1.35

// Unit is an evaluated tensor unit.
type Unit struct {
	Cfg Config

	cell     pat.Result // one systolic cell, incl. local buffers and link
	fifos    pat.Result // all I/O FIFOs
	bus      pat.Result // multicast X/Y buses (zero for unicast)
	perMACPJ float64
	areaUM2  float64
	leakUW   float64
	critPS   float64
	spad     *memarray.Array // non-nil when LocalSpadBytes > 0
}

// Build evaluates a tensor unit.
func Build(cfg Config) (*Unit, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("tensorunit: array must be at least 1x1, got %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.CyclePS <= 0 {
		return nil, fmt.Errorf("tensorunit: CyclePS must be positive")
	}
	// The DataType zero value is Int8, and Int8 accumulation is never a
	// valid configuration (products overflow immediately), so an Int8
	// AccType always means "unset: derive from the multiplier format".
	acc := cfg.AccType
	if acc == maclib.Int8 {
		acc = cfg.MulType.AccumType()
	}
	n := cfg.Node
	u := &Unit{Cfg: cfg}
	u.Cfg.AccType = acc

	// ---- Systolic cell ----------------------------------------------------
	mac := maclib.MAC(n, cfg.MulType, acc)

	mulBits := cfg.MulType.Bits()
	accBits := acc.Bits()
	// All dataflows carry an internal MAC pipeline latch (partial product /
	// carry-save stage) of roughly 2.5x the multiplier operand width.
	pipeBits := mulBits * 5 / 2
	var regBits int
	switch cfg.Dataflow {
	case OutputStationary:
		// Stationary psum register; weight and activation stream through.
		regBits = accBits + 2*mulBits + pipeBits + 4
	case RowStationary:
		// Filter row + input row + psum registers handled by the explicit
		// local reg/spad storage; keep minimal pipeline regs.
		regBits = mulBits + accBits/2 + pipeBits + 4
	default: // WeightStationary
		// Double-buffered weight, streaming activation, flowing psum.
		regBits = 2*mulBits + mulBits + accBits + pipeBits + 4
	}
	regs := circuit.Register{Node: n, Bits: regBits}.Eval()
	regs.DynPJ *= clockOverhead

	// Per-cell control plus output drivers for the systolic links.
	ctlArea, ctlDyn, ctlLeak := n.LogicBlock(35+2*float64(mulBits+accBits), 0.3)
	cell := mac.Add(regs)
	cell.AreaUM2 += ctlArea
	cell.DynPJ += ctlDyn
	cell.LeakUW += ctlLeak

	// Extra local register storage (Eyeriss-style).
	if cfg.LocalRegBytes > 0 {
		lr := circuit.Register{Node: n, Bits: cfg.LocalRegBytes * 8}.Eval()
		// Only a fraction of the local registers toggles per MAC.
		lr.DynPJ *= 0.25 * clockOverhead
		cell = cell.Add(lr)
	}
	// Local scratchpad (Eyeriss spad): a small SRAM per cell.
	if cfg.LocalSpadBytes > 0 {
		sp, err := memarray.BuildCached(memarray.Config{
			Node: n, Cell: tech.CellSRAM,
			CapacityBytes: int64(cfg.LocalSpadBytes),
			BlockBytes:    2,
			Banks:         1, ReadPorts: 1, WritePorts: 1,
			CyclePS: cfg.CyclePS,
		})
		if err != nil {
			return nil, fmt.Errorf("tensorunit: cell spad: %w", err)
		}
		u.spad = sp
		cell.AreaUM2 += sp.AreaUM2()
		// ~1 spad read + 0.5 write per MAC in row-stationary operation.
		cell.DynPJ += sp.ReadEnergyPJ() + 0.5*sp.WriteEnergyPJ()
		cell.LeakUW += sp.LeakUW()
	}

	// Cell pitch (post-overhead) determines the neighbour link length.
	cellArea := cell.AreaUM2 * fabricOverhead
	pitchMM := math.Sqrt(cellArea) / 1000

	// ---- Interconnect ------------------------------------------------------
	linkBits := mulBits + accBits + mulBits // act in, psum through, weight path
	switch cfg.Interconnect {
	case Unicast:
		link := circuit.Wire{
			Node: n, Layer: tech.WireIntermediate,
			LengthMM:  pitchMM,
			DriverRes: n.InvRonOhm() / 4,
			LoadFF:    n.InvCinFF() * 4,
			Bits:      linkBits,
		}
		lr := link.Eval()
		// Link wires route over the cell; count tracks not consumed by the
		// fabric overhead at 40%.
		cell.AreaUM2 += lr.AreaUM2 * 0.4 / fabricOverhead
		cell.DynPJ += lr.DynPJ * 0.5 // average toggle
		u.critPS = cell.DelayPS + lr.DelayPS
	case Multicast:
		// X buses span each row, Y buses each column; every cell taps the
		// bus. Delay from the Elmore chain with per-cell taps.
		rowSegs := make([]circuit.PiRC, cfg.Cols)
		taps := make([]float64, cfg.Cols)
		for i := range rowSegs {
			rowSegs[i] = circuit.PiFromWire(n, tech.WireIntermediate, pitchMM)
			taps[i] = n.InvCinFF() * 3
		}
		busDelay, err := circuit.ElmoreChainPS(n.InvRonOhm()/16, rowSegs, taps)
		if err != nil {
			return nil, err
		}
		rowBus := circuit.Wire{
			Node: n, Layer: tech.WireIntermediate,
			LengthMM: pitchMM * float64(cfg.Cols),
			Bits:     mulBits * 2, // data + tag for multicast matching
		}
		colBus := circuit.Wire{
			Node: n, Layer: tech.WireIntermediate,
			LengthMM: pitchMM * float64(cfg.Rows),
			Bits:     mulBits * 2,
		}
		rb, cb := rowBus.Eval(), colBus.Eval()
		// The X/Y buses route over the PE array on upper metal; only a
		// quarter of the track footprint costs silicon (keep-out + drivers).
		u.bus = pat.Result{
			AreaUM2: (rb.AreaUM2*float64(cfg.Rows) + cb.AreaUM2*float64(cfg.Cols)) * 0.25,
			DynPJ:   rb.DynPJ + cb.DynPJ, // per broadcast
			LeakUW:  0,
			DelayPS: busDelay,
		}
		u.critPS = math.Max(cell.DelayPS, busDelay)
	}

	// ---- I/O FIFOs ---------------------------------------------------------
	depth := cfg.IOFIFODepth
	if depth <= 0 {
		depth = 8
	}
	inFIFO := circuit.FIFO{Node: n, Depth: depth, Bits: mulBits}.Eval()
	outFIFO := circuit.FIFO{Node: n, Depth: depth, Bits: accBits}.Eval()
	u.fifos = inFIFO.Scale(float64(cfg.Rows + cfg.Cols)).Add(outFIFO.Scale(float64(cfg.Cols)))

	// ---- Totals ------------------------------------------------------------
	cells := float64(cfg.Rows * cfg.Cols)
	u.cell = cell
	u.areaUM2 = cellArea*cells + u.fifos.AreaUM2 + u.bus.AreaUM2
	u.leakUW = cell.LeakUW*cells + u.fifos.LeakUW

	// Per-MAC energy: the cell itself plus amortized FIFO traffic (one
	// push/pop feeds a whole row/column of MACs) and, for multicast, the
	// bus broadcast amortized over the cells it feeds.
	perMAC := cell.DynPJ +
		(inFIFO.DynPJ*float64(cfg.Rows+cfg.Cols)+outFIFO.DynPJ*float64(cfg.Cols))/cells
	if cfg.Interconnect == Multicast {
		perMAC += u.bus.DynPJ / float64(cfg.Rows+cfg.Cols)
	}
	u.perMACPJ = perMAC
	u.critPS = math.Max(u.critPS, u.fifos.DelayPS)
	return u, nil
}

// AreaUM2 returns the total TU area.
func (u *Unit) AreaUM2() float64 { return u.areaUM2 }

// PerMACPJ returns the average dynamic energy of one MAC operation,
// including register, local-buffer, link and amortized FIFO energy.
func (u *Unit) PerMACPJ() float64 { return u.perMACPJ }

// LeakUW returns the total static leakage.
func (u *Unit) LeakUW() float64 { return u.leakUW }

// CritPathPS returns the slowest stage delay; it must fit the cycle.
func (u *Unit) CritPathPS() float64 { return u.critPS }

// MeetsTiming reports whether the unit's critical path fits its target cycle.
func (u *Unit) MeetsTiming() bool { return u.critPS <= u.Cfg.CyclePS }

// MACs returns the number of systolic cells.
func (u *Unit) MACs() int { return u.Cfg.Rows * u.Cfg.Cols }

// PeakOpsPerCycle returns 2*MACs (multiply + add count as two operations,
// the convention behind "TOPS" in the paper).
func (u *Unit) PeakOpsPerCycle() float64 { return 2 * float64(u.MACs()) }

// CellResult exposes the evaluated single-cell model (Eyeriss PE-level
// validation compares at this granularity).
func (u *Unit) CellResult() pat.Result {
	c := u.cell
	c.AreaUM2 *= fabricOverhead
	return c
}

// FIFOResult exposes the aggregate I/O FIFO model.
func (u *Unit) FIFOResult() pat.Result { return u.fifos }

// BusResult exposes the multicast bus model (zero for unicast TUs).
func (u *Unit) BusResult() pat.Result { return u.bus }

// Result summarizes the whole unit; DynPJ is per MAC.
func (u *Unit) Result() pat.Result {
	return pat.Result{
		AreaUM2: u.areaUM2,
		DynPJ:   u.perMACPJ,
		LeakUW:  u.leakUW,
		DelayPS: u.critPS,
	}
}

func (u *Unit) String() string {
	return fmt.Sprintf("tu[%dx%d %s/%s %s area=%.2fmm2 %.3fpJ/MAC crit=%.0fps]",
		u.Cfg.Rows, u.Cfg.Cols, u.Cfg.MulType, u.Cfg.AccType, u.Cfg.Interconnect,
		u.areaUM2/1e6, u.perMACPJ, u.critPS)
}
