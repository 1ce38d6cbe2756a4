package circuit

import (
	"math"

	"neurometer/internal/pat"
	"neurometer/internal/tech"
)

// DFF models a standard-cell D flip-flop. Energy is per clock edge with the
// data input toggling (worst case data activity folded into callers'
// activity factors); clock-pin energy is included, matching the paper's
// choice to amortize the clock network into components.
type DFF struct {
	Node tech.Node
}

// dffGateEquiv is the NAND2-equivalent complexity of a scan-less DFF.
const dffGateEquiv = 6.0

// Eval returns per-bit flip-flop characteristics. Delay is clk-to-Q.
func (d DFF) Eval() pat.Result {
	return pat.Result{
		AreaUM2: d.Node.DFFCellUM2,
		DynPJ:   dffGateEquiv * d.Node.GateEnergyFJ / 1000 * 0.7,
		LeakUW:  dffGateEquiv * d.Node.GateLeakNW / 1000,
		DelayPS: 2.2 * d.Node.FO4PS,
	}
}

// Register is a Bits-wide bank of DFFs.
type Register struct {
	Node tech.Node
	Bits int
}

// Eval returns the register's characteristics; energy is per full-width
// write at activity 1.
func (r Register) Eval() pat.Result {
	return DFF{Node: r.Node}.Eval().Scale(float64(maxI(r.Bits, 1)))
}

// Decoder models an N-to-2^N row decoder built from predecode + final NAND
// stages, the regular-logic pattern NeuroMeter shares with CACTI/McPAT.
type Decoder struct {
	Node    tech.Node
	Outputs int // number of decoded lines (2^N)
}

// Eval returns decoder characteristics; energy is per decode operation.
func (d Decoder) Eval() pat.Result {
	n := maxI(d.Outputs, 2)
	addrBits := math.Ceil(math.Log2(float64(n)))
	// ~1 NAND per output plus predecoders.
	gates := float64(n) + 4*addrBits
	area, dyn, leak := d.Node.LogicBlock(gates, 0.5)
	// Only one output line plus the predecode path switches per decode.
	dynPerOp := (addrBits*2 + 4) * d.Node.GateEnergyFJ / 1000
	levels := 2 + math.Ceil(math.Log2(math.Max(addrBits, 1)))
	_ = dyn
	return pat.Result{
		AreaUM2: area,
		DynPJ:   dynPerOp,
		LeakUW:  leak,
		DelayPS: levels * d.Node.FO4PS,
	}
}

// Mux models an Inputs:1 multiplexer of the given width, built as a tree of
// 2:1 muxes.
type Mux struct {
	Node   tech.Node
	Inputs int
	Bits   int
}

// Eval returns mux characteristics; energy is per select operation with the
// selected bus toggling.
func (m Mux) Eval() pat.Result {
	in := maxI(m.Inputs, 2)
	bits := maxI(m.Bits, 1)
	levels := math.Ceil(math.Log2(float64(in)))
	gates := float64(in-1) * 3 * float64(bits) // 3 gates per 2:1 mux bit
	area, _, leak := m.Node.LogicBlock(gates, 0.3)
	// One path of the tree switches per op.
	dynPerOp := levels * 3 * float64(bits) * m.Node.GateEnergyFJ / 1000 * 0.5
	return pat.Result{
		AreaUM2: area,
		DynPJ:   dynPerOp,
		LeakUW:  leak,
		DelayPS: levels * 1.4 * m.Node.FO4PS,
	}
}

// Crossbar models an Inputs x Outputs, Bits-wide matrix crossbar (the NoC
// router switch fabric). Area grows with Inputs*Outputs*Bits; energy is per
// traversal of one input->output connection.
type Crossbar struct {
	Node    tech.Node
	Inputs  int
	Outputs int
	Bits    int
}

// Eval returns crossbar characteristics.
func (x Crossbar) Eval() pat.Result {
	in, out, bits := maxI(x.Inputs, 1), maxI(x.Outputs, 1), maxI(x.Bits, 1)
	// Wire-dominated area: each crosspoint is a tristate driver; the grid
	// spans in*bits tracks by out*bits tracks at intermediate pitch.
	f := float64(x.Node.Nm) / 1000
	pitch := 8 * f // um
	w := float64(in*bits) * pitch
	h := float64(out*bits) * pitch
	crosspoints := float64(in * out * bits)
	gateArea := crosspoints * 2 * x.Node.GateAreaUM2()
	area := math.Max(w*h, gateArea)
	// Per traversal: one row + one column of wire plus bits drivers. The
	// traversal wire is repeated, as in real wide switch fabrics.
	wireCap := (w + h) / 1000 * x.Node.WireCapFFPerMM[tech.WireIntermediate]
	dyn := (wireCap*x.Node.Vdd*x.Node.Vdd/1000)*0.5 +
		float64(bits)*4*x.Node.GateEnergyFJ/1000
	leak := crosspoints * 2 * x.Node.GateLeakNW / 1000
	trav, _ := (&Wire{
		Node: x.Node, Layer: tech.WireIntermediate,
		LengthMM: (w + h) / 1000, Bits: 1,
	}).Repeated()
	return pat.Result{AreaUM2: area, DynPJ: dyn, LeakUW: leak, DelayPS: trav.DelayPS + 2*x.Node.FO4PS}
}
