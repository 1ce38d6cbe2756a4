// Package tech is NeuroMeter's technology backend: the per-process-node
// device and wiring parameters every circuit-level model consumes.
//
// The paper uses the FreePDK45/FreePDK15 libraries plus ITRS-style scaling;
// this package substitutes a parameter table for planar/FinFET nodes from
// 65nm down to 7nm with public ballpark values, calibrated at the chip
// level against TPU-v1 (28nm), TPU-v2 (16nm) and Eyeriss (65nm). Only the
// small parameter surface NeuroMeter actually needs is modeled: supply
// voltage, FO4 delay, standard-cell density and energy, memory cell
// geometry, wire RC per mm, and leakage.
package tech

import (
	"fmt"
	"math"
	"sort"

	"neurometer/internal/guard"
)

// WireLayer selects one of the three wiring planes the hierarchical wire
// model distinguishes, in the CACTI tradition.
type WireLayer int

const (
	// WireLocal is minimum-pitch metal used inside arrays (bitlines,
	// cell-to-cell links).
	WireLocal WireLayer = iota
	// WireIntermediate is semi-global routing between blocks in a core.
	WireIntermediate
	// WireGlobal is wide top-metal routing: NoC links, clock spines.
	WireGlobal
)

func (w WireLayer) String() string {
	switch w {
	case WireLocal:
		return "local"
	case WireIntermediate:
		return "intermediate"
	case WireGlobal:
		return "global"
	}
	return fmt.Sprintf("WireLayer(%d)", int(w))
}

// MemCell selects the storage cell family for memory arrays (§II-A "the
// cell type of Mem can be selected from DFF, SRAM, and eDRAM").
type MemCell int

const (
	CellSRAM MemCell = iota
	CellDFF
	CellEDRAM
)

func (c MemCell) String() string {
	switch c {
	case CellSRAM:
		return "sram"
	case CellDFF:
		return "dff"
	case CellEDRAM:
		return "edram"
	}
	return fmt.Sprintf("MemCell(%d)", int(c))
}

// Node holds the backend parameters of one technology node at one supply
// voltage. All derived models read only these fields, so evaluating a
// component at a different node or voltage is a matter of swapping the Node.
type Node struct {
	// Nm is the node name (65, 45, 28, 16, 7).
	Nm int
	// VddNominal is the library's nominal supply in volts; Vdd is the
	// operating supply (equal to VddNominal unless WithVdd was used).
	VddNominal float64
	Vdd        float64

	// FO4PS is the fanout-of-4 inverter delay in picoseconds at the
	// operating voltage: the unit of gate-delay arithmetic.
	FO4PS float64

	// GateDensityPerMM2 is the achievable NAND2-equivalent standard-cell
	// density (gates per mm^2) including typical placement utilization.
	GateDensityPerMM2 float64

	// GateCapFF is the input capacitance of a unit (1x) inverter in fF.
	GateCapFF float64

	// GateEnergyFJ is the switching energy of one NAND2-equivalent gate
	// in fJ at the operating voltage, including the average local-wire
	// load of a synthesized netlist (which is why it is ~2x the bare-gate
	// CV^2 figure).
	GateEnergyFJ float64

	// GateLeakNW is the leakage of one NAND2-equivalent gate in nW at the
	// operating voltage and hot (TDP-condition) silicon temperature.
	GateLeakNW float64

	// SRAMCellUM2 is the 6T SRAM bit-cell area in um^2; EDRAMCellUM2 the
	// 1T1C embedded-DRAM cell; DFFCellUM2 a standard-cell flip-flop.
	SRAMCellUM2  float64
	EDRAMCellUM2 float64
	DFFCellUM2   float64

	// SRAMCellReadFJ is the bit-cell-level read energy per bit in fJ
	// (cell + local bitline swing); peripheral energy is modeled on top
	// by memarray.
	SRAMCellReadFJ float64
	// SRAMCellLeakNW is per-bit leakage in nW.
	SRAMCellLeakNW float64

	// Wire parameters per layer: resistance in ohm/mm and capacitance in
	// fF/mm. Indexed by WireLayer.
	WireResOhmPerMM [3]float64
	WireCapFFPerMM  [3]float64
}

// nominal table. Sources: public ITRS/IRDS scaling surveys, CACTI 6/7
// defaults, Horowitz ISSCC'14 energy tables; values then calibrated so the
// three validation chips land inside the paper's error bands.
var nodes = map[int]Node{
	65: {
		Nm: 65, VddNominal: 1.0, Vdd: 1.0,
		FO4PS:             25.0,
		GateDensityPerMM2: 0.70e6,
		GateCapFF:         1.8,
		GateEnergyFJ:      4.5,
		GateLeakNW:        8.0,
		SRAMCellUM2:       0.525,
		EDRAMCellUM2:      0.21,
		DFFCellUM2:        9.4,
		SRAMCellReadFJ:    0.045,
		SRAMCellLeakNW:    0.0080,
		WireResOhmPerMM:   [3]float64{1600, 850, 180},
		WireCapFFPerMM:    [3]float64{195, 205, 240},
	},
	45: {
		Nm: 45, VddNominal: 1.0, Vdd: 1.0,
		FO4PS:             17.0,
		GateDensityPerMM2: 1.40e6,
		GateCapFF:         1.1,
		GateEnergyFJ:      2.5,
		GateLeakNW:        6.5,
		SRAMCellUM2:       0.346,
		EDRAMCellUM2:      0.14,
		DFFCellUM2:        5.2,
		SRAMCellReadFJ:    0.030,
		SRAMCellLeakNW:    0.0065,
		WireResOhmPerMM:   [3]float64{2300, 1250, 250},
		WireCapFFPerMM:    [3]float64{190, 200, 235},
	},
	28: {
		Nm: 28, VddNominal: 0.90, Vdd: 0.90,
		FO4PS:             11.0,
		GateDensityPerMM2: 3.40e6,
		GateCapFF:         0.62,
		GateEnergyFJ:      1.0,
		GateLeakNW:        4.5,
		SRAMCellUM2:       0.127,
		EDRAMCellUM2:      0.051,
		DFFCellUM2:        2.1,
		SRAMCellReadFJ:    0.014,
		SRAMCellLeakNW:    0.0040,
		WireResOhmPerMM:   [3]float64{3600, 2000, 380},
		WireCapFFPerMM:    [3]float64{185, 195, 230},
	},
	16: {
		Nm: 16, VddNominal: 0.80, Vdd: 0.80,
		FO4PS:             7.6,
		GateDensityPerMM2: 8.70e6,
		GateCapFF:         0.38,
		GateEnergyFJ:      0.95,
		GateLeakNW:        4.0,
		SRAMCellUM2:       0.074,
		EDRAMCellUM2:      0.030,
		DFFCellUM2:        0.86,
		SRAMCellReadFJ:    0.0100,
		SRAMCellLeakNW:    0.0025,
		WireResOhmPerMM:   [3]float64{6200, 3400, 620},
		WireCapFFPerMM:    [3]float64{180, 192, 225},
	},
	7: {
		Nm: 7, VddNominal: 0.70, Vdd: 0.70,
		FO4PS:             4.9,
		GateDensityPerMM2: 23.0e6,
		GateCapFF:         0.22,
		GateEnergyFJ:      0.30,
		GateLeakNW:        1.8,
		SRAMCellUM2:       0.031,
		EDRAMCellUM2:      0.013,
		DFFCellUM2:        0.33,
		SRAMCellReadFJ:    0.0034,
		SRAMCellLeakNW:    0.0015,
		WireResOhmPerMM:   [3]float64{14500, 7800, 1300},
		WireCapFFPerMM:    [3]float64{178, 190, 222},
	},
}

// Nodes returns the list of directly tabulated node names, ascending.
func Nodes() []int {
	out := make([]int, 0, len(nodes))
	for nm := range nodes {
		out = append(out, nm)
	}
	sort.Ints(out)
	return out
}

// ByNode returns the parameter set of a technology node. Nodes between two
// tabulated entries are geometrically interpolated so intermediate processes
// (e.g. 40, 22, 12 nm) can be modeled; nodes outside [7,65] are an error.
func ByNode(nm int) (Node, error) {
	if n, ok := nodes[nm]; ok {
		return n, nil
	}
	names := Nodes()
	if nm < names[0] || nm > names[len(names)-1] {
		return Node{}, guard.Invalid("tech: node %dnm outside supported range [%d,%d]",
			nm, names[0], names[len(names)-1])
	}
	lo, hi := bracket(names, nm)
	a, b := nodes[lo], nodes[hi]
	// Geometric interpolation in log(node) space: feature-driven metrics
	// scale roughly as power laws of the node name.
	t := (math.Log(float64(nm)) - math.Log(float64(lo))) /
		(math.Log(float64(hi)) - math.Log(float64(lo)))
	g := func(x, y float64) float64 {
		if x <= 0 || y <= 0 {
			return x + t*(y-x)
		}
		return math.Exp(math.Log(x) + t*(math.Log(y)-math.Log(x)))
	}
	n := Node{
		Nm:                nm,
		VddNominal:        g(a.VddNominal, b.VddNominal),
		FO4PS:             g(a.FO4PS, b.FO4PS),
		GateDensityPerMM2: g(a.GateDensityPerMM2, b.GateDensityPerMM2),
		GateCapFF:         g(a.GateCapFF, b.GateCapFF),
		GateEnergyFJ:      g(a.GateEnergyFJ, b.GateEnergyFJ),
		GateLeakNW:        g(a.GateLeakNW, b.GateLeakNW),
		SRAMCellUM2:       g(a.SRAMCellUM2, b.SRAMCellUM2),
		EDRAMCellUM2:      g(a.EDRAMCellUM2, b.EDRAMCellUM2),
		DFFCellUM2:        g(a.DFFCellUM2, b.DFFCellUM2),
		SRAMCellReadFJ:    g(a.SRAMCellReadFJ, b.SRAMCellReadFJ),
		SRAMCellLeakNW:    g(a.SRAMCellLeakNW, b.SRAMCellLeakNW),
	}
	for i := 0; i < 3; i++ {
		n.WireResOhmPerMM[i] = g(a.WireResOhmPerMM[i], b.WireResOhmPerMM[i])
		n.WireCapFFPerMM[i] = g(a.WireCapFFPerMM[i], b.WireCapFFPerMM[i])
	}
	n.Vdd = n.VddNominal
	return n, nil
}

func bracket(sorted []int, nm int) (lo, hi int) {
	lo, hi = sorted[0], sorted[len(sorted)-1]
	for i := 0; i+1 < len(sorted); i++ {
		if sorted[i] <= nm && nm <= sorted[i+1] {
			return sorted[i], sorted[i+1]
		}
	}
	return lo, hi
}

// Reference returns the directly tabulated node nm without interpolation.
// The second result reports whether nm is a table entry. Packages that
// anchor scaling laws at a fixed tabulated node (maclib at 45nm, periph at
// 28nm) use it to obtain an infallible constant; everything user-facing
// goes through ByNode and handles the error.
func Reference(nm int) (Node, bool) {
	n, ok := nodes[nm]
	return n, ok
}

// WithVdd returns a copy of n operating at supply v (volts). Dynamic energy
// scales as (v/Vnom)^2, leakage roughly linearly, and delay with a
// simplified alpha-power law: delay ~ v/(v-Vt)^1.3 with Vt ~= 0.35*Vnom.
// Non-positive and non-finite supplies are ignored (nominal operation) so a
// corrupted voltage can never poison the derived parameters with NaN.
func (n Node) WithVdd(v float64) Node {
	if !(v > 0) || math.IsInf(v, 1) {
		return n
	}
	out := n
	r := v / n.VddNominal
	out.Vdd = v
	out.GateEnergyFJ *= r * r
	out.SRAMCellReadFJ *= r * r
	out.GateLeakNW *= r
	out.SRAMCellLeakNW *= r
	out.FO4PS *= delayFactor(v, n.VddNominal)
	return out
}

func delayFactor(v, vnom float64) float64 {
	vt := 0.35 * vnom
	if v <= vt*1.1 {
		v = vt * 1.1 // clamp: near-threshold operation is out of scope
	}
	num := v / math.Pow(v-vt, 1.3)
	den := vnom / math.Pow(vnom-vt, 1.3)
	return num / den
}

// CellAreaUM2 returns the per-bit cell area for the given memory cell type.
func (n Node) CellAreaUM2(c MemCell) float64 {
	switch c {
	case CellSRAM:
		return n.SRAMCellUM2
	case CellEDRAM:
		return n.EDRAMCellUM2
	case CellDFF:
		return n.DFFCellUM2
	}
	return n.SRAMCellUM2
}

// CellReadFJ returns the per-bit cell-level read energy for cell type c.
// eDRAM reads are destructive and include restore; DFF reads are a mux path.
func (n Node) CellReadFJ(c MemCell) float64 {
	switch c {
	case CellSRAM:
		return n.SRAMCellReadFJ
	case CellEDRAM:
		return n.SRAMCellReadFJ * 1.8
	case CellDFF:
		return n.GateEnergyFJ * 0.5
	}
	return n.SRAMCellReadFJ
}

// CellLeakNW returns per-bit leakage for cell type c. eDRAM has negligible
// cell leakage but pays refresh energy, folded in as equivalent static power.
func (n Node) CellLeakNW(c MemCell) float64 {
	switch c {
	case CellSRAM:
		return n.SRAMCellLeakNW
	case CellEDRAM:
		return n.SRAMCellLeakNW * 0.35
	case CellDFF:
		return n.GateLeakNW * 4.5
	}
	return n.SRAMCellLeakNW
}

// SRAMCellAspect is the width/height ratio of the 6T cell; used to derive
// wordline/bitline lengths from cell counts.
const SRAMCellAspect = 2.0

// CellDimsUM returns the (width, height) of one cell in micrometres.
func (n Node) CellDimsUM(c MemCell) (w, h float64) {
	a := n.CellAreaUM2(c)
	h = math.Sqrt(a / SRAMCellAspect)
	return a / h, h
}

// The unit-gate helpers below take a pointer: the circuit and memory-array
// models call them in their inner loops, and a value receiver would copy
// the whole Node on every call.

// InvCinFF returns the input capacitance of a unit inverter.
func (n *Node) InvCinFF() float64 { return n.GateCapFF }

// InvRonOhm returns the effective drive resistance of a unit inverter,
// derived from the FO4 delay: FO4 = ln(2) * Ron * (Cpar + 4*Cin) with
// Cpar ~= Cin.
func (n *Node) InvRonOhm() float64 {
	return n.FO4PS * 1e-12 / (math.Ln2 * 5 * n.GateCapFF * 1e-15)
}

// GateAreaUM2 returns the layout area of one NAND2-equivalent gate.
func (n *Node) GateAreaUM2() float64 { return 1e6 / n.GateDensityPerMM2 }

// LogicBlock returns the area/energy/leakage of a block of the given
// NAND2-equivalent gate count with the given average switching activity
// (energy reported per clocked operation of the block). Delay is not
// meaningful for an amorphous gate-count block and is returned as zero.
func (n *Node) LogicBlock(gates float64, activity float64) (areaUM2, dynPJ, leakUW float64) {
	areaUM2 = gates * n.GateAreaUM2()
	dynPJ = gates * n.GateEnergyFJ * activity / 1000
	leakUW = gates * n.GateLeakNW / 1000
	return
}

func (n Node) String() string {
	return fmt.Sprintf("%dnm@%.2fV", n.Nm, n.Vdd)
}
