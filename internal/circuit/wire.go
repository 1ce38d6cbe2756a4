// Package circuit provides NeuroMeter's circuit-level primitives: RC wires
// with Elmore delay, driver chains, flip-flops, decoders, multiplexers,
// adders and multipliers. Architectural components (tensor units, memory
// arrays, NoC routers, ...) are composed from these primitives, each
// evaluated against a tech.Node.
package circuit

import (
	"math"

	"neurometer/internal/guard"
	"neurometer/internal/pat"
	"neurometer/internal/tech"
)

// Wire describes a point-to-point interconnect segment abstracted as the
// pi-RC model of Fig. 2(d): a driver output resistance, the distributed wire
// RC, and a lumped load capacitance. The methods take a pointer so a call
// does not copy the embedded Node; none of them modifies the wire.
type Wire struct {
	Node     tech.Node
	Layer    tech.WireLayer
	LengthMM float64
	// DriverRes is the output resistance of the driving stage in ohms.
	// Zero means "size an appropriate driver automatically".
	DriverRes float64
	// LoadFF is the far-end load capacitance in fF.
	LoadFF float64
	// Bits is the bus width (parallel wires). Area/energy scale with Bits;
	// delay does not.
	Bits int
}

// ElmoreDelayPS returns the Elmore delay of the (unrepeated) wire in ps:
//
//	t = R_drv*(C_w + C_L) + R_w*(C_w/2 + C_L)
func (w *Wire) ElmoreDelayPS() float64 {
	r := w.rc()
	return r.elmorePS(w.LengthMM, w.driverRes())
}

// driverRes resolves the wire's driver: DriverRes, or a default 8x driver.
func (w *Wire) driverRes() float64 {
	if w.DriverRes <= 0 {
		return w.Node.InvRonOhm() / 8
	}
	return w.DriverRes
}

// wirePitchUM returns the routing pitch per wire in um for the layer,
// approximated from the node name (pitch ~ 4F local, 8F intermediate,
// 16F global, plus spacing).
func (w *Wire) wirePitchUM() float64 {
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

// TrackAreaUM2 returns the raw routing-track footprint of the bus. Wires on
// upper metal layers route over logic, so callers that account for silicon
// area separately (e.g. NoC links) can subtract most of this footprint.
func (w *Wire) TrackAreaUM2() float64 {
	bits := float64(maxI(w.Bits, 1))
	return w.wirePitchUM() * w.LengthMM * 1000 * bits
}

// Eval returns the power/area/timing of the unrepeated wire bus. Energy is
// per bus transfer (all bits switching counted at activity 1; callers apply
// activity factors).
func (w *Wire) Eval() pat.Result {
	r := w.rc()
	return r.evalAt(w.LengthMM, w.driverRes())
}

// rc is what evaluating a wire bus at some length reads of the wire and its
// node, copied out once: the layer's RC per mm, the far-end load, the
// supply, the routing pitch and the bus width.
type rc struct {
	resOhmPerMM, capFFPerMM float64
	loadFF, vdd, pitchUM    float64
	bits                    float64 // at least 1
}

func (w *Wire) rc() rc {
	return rc{
		resOhmPerMM: w.Node.WireResOhmPerMM[w.Layer],
		capFFPerMM:  w.Node.WireCapFFPerMM[w.Layer],
		loadFF:      w.LoadFF,
		vdd:         w.Node.Vdd,
		pitchUM:     w.wirePitchUM(),
		bits:        float64(maxI(w.Bits, 1)),
	}
}

// elmorePS is the Elmore delay in ps of the bus at the given length, driven
// through driverRes ohms.
func (r *rc) elmorePS(lengthMM, driverRes float64) float64 {
	rw := r.resOhmPerMM * lengthMM
	cw := r.capFFPerMM * lengthMM * 1e-15
	cl := r.loadFF * 1e-15
	return (driverRes*(cw+cl) + rw*(cw/2+cl)) * 1e12
}

// evalAt is the unrepeated bus at the given length and driver. The
// switching energy of one wire at activity 1 is (C_w + C_L)*Vdd^2.
func (r *rc) evalAt(lengthMM, driverRes float64) pat.Result {
	return pat.Result{
		AreaUM2: r.pitchUM * lengthMM * 1000 * r.bits,
		DynPJ:   (r.capFFPerMM*lengthMM + r.loadFF) * r.vdd * r.vdd / 1000 * r.bits, // fF*V^2 -> pJ
		LeakUW:  0,
		DelayPS: r.elmorePS(lengthMM, driverRes),
	}
}

// Repeated returns the wire evaluated with optimal repeater insertion.
// Repeaters linearize delay with length at the cost of driver area/energy.
// The returned result includes repeater overheads; the bool reports whether
// repeaters were actually inserted (short wires need none).
func (w *Wire) Repeated() (pat.Result, bool) {
	r := w.Repeater()
	return r.At(w.LengthMM)
}

// Repeater is the repeated-insertion model of a wire with every term that
// does not depend on its length evaluated once. Repeated delegates to it;
// a caller that evaluates one bus at many lengths (memarray's organization
// search) keeps one and calls At, so the wire's Node is not read again.
type Repeater struct {
	rc
	driverRes    float64 // the wire's own driver, used while unrepeated
	segDriverRes float64 // each repeated segment's default-sized driver
	lcritMM      float64
	// Per repeater and bit: ~24x inverter area, switching energy (pJ) and
	// leakage (uW).
	repArea, repEnergy, repLeak float64
}

// Repeater returns the wire's repeated-insertion model; the wire's length
// is not part of it.
func (w *Wire) Repeater() Repeater {
	// Critical segment length where unrepeated quadratic delay exceeds the
	// repeated linear delay (classic sqrt(2*Rdrv*Cin/(Rw*Cw)) form).
	rw := w.Node.WireResOhmPerMM[w.Layer]
	cw := w.Node.WireCapFFPerMM[w.Layer] * 1e-15
	r0 := w.Node.InvRonOhm()
	c0 := w.Node.InvCinFF() * 1e-15
	return Repeater{
		rc:           w.rc(),
		driverRes:    w.driverRes(),
		segDriverRes: r0 / 8,
		lcritMM:      math.Sqrt(2 * r0 * c0 / (rw * cw)),
		repArea:      24 * w.Node.GateAreaUM2(),
		repEnergy:    24 * w.Node.GateEnergyFJ / 1000,
		repLeak:      24 * w.Node.GateLeakNW / 1000,
	}
}

// At evaluates the repeated bus at the given length, as Repeated does for
// a wire of that length.
func (r *Repeater) At(lengthMM float64) (pat.Result, bool) {
	if lengthMM <= r.lcritMM {
		return r.evalAt(lengthMM, r.driverRes), false
	}
	nseg := math.Ceil(lengthMM / r.lcritMM)
	// One segment: the same bus over 1/nseg of the length, driven by a
	// default-sized repeater.
	seg := r.evalAt(lengthMM/nseg, r.segDriverRes)
	return pat.Result{
		AreaUM2: seg.AreaUM2*nseg + r.repArea*nseg*r.bits,
		DynPJ:   seg.DynPJ*nseg + r.repEnergy*nseg*r.bits,
		LeakUW:  r.repLeak * nseg * r.bits,
		DelayPS: seg.DelayPS * nseg,
	}, true
}

// Pipelined evaluates the repeated wire and, if its delay exceeds the cycle
// time, inserts pipeline flip-flops so the bus sustains one transfer per
// cycle (§II-A CDB: "when the length is large, wires are pipelined to meet
// the throughput requirement"). It returns the result (with DFF overheads)
// and the number of pipeline stages (0 = combinational within one cycle).
func (w *Wire) Pipelined(cyclePS float64) (pat.Result, int) {
	res, _ := w.Repeated()
	if cyclePS <= 0 || res.DelayPS <= cyclePS {
		return res, 0
	}
	stages := int(math.Ceil(res.DelayPS / cyclePS))
	ff := DFF{Node: w.Node}
	ffRes := ff.Eval()
	bits := float64(maxI(w.Bits, 1))
	nff := float64(stages-1) * bits
	res.AreaUM2 += ffRes.AreaUM2 * nff
	res.DynPJ += ffRes.DynPJ * nff
	res.LeakUW += ffRes.LeakUW * nff
	// Per-stage delay now fits the cycle; report the stage delay as the
	// critical path contribution.
	res.DelayPS = res.DelayPS / float64(stages)
	return res, stages
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PiRC is the explicit three-element pi model of one wire segment, exposed
// for tests and for the inner-TU interconnect model which chains segments
// with taps (Fig. 2(d)).
type PiRC struct {
	ROhm  float64
	CNear float64 // fF
	CFar  float64 // fF
}

// PiFromWire decomposes a wire segment into its pi equivalent.
func PiFromWire(n tech.Node, layer tech.WireLayer, lengthMM float64) PiRC {
	return PiRC{
		ROhm:  n.WireResOhmPerMM[layer] * lengthMM,
		CNear: n.WireCapFFPerMM[layer] * lengthMM / 2,
		CFar:  n.WireCapFFPerMM[layer] * lengthMM / 2,
	}
}

// ElmoreChainPS computes the Elmore delay (ps) through a chain of pi
// segments with per-tap load capacitances, driven by driverRes ohms. taps
// must have the same length as segs; taps[i] (fF) loads the far node of
// segs[i]. The delay reported is to the far end of the chain. A
// segs/taps length mismatch is an ErrInvalidConfig error at the API
// boundary, not a panic.
func ElmoreChainPS(driverRes float64, segs []PiRC, taps []float64) (float64, error) {
	if len(taps) != len(segs) {
		return 0, guard.Invalid("circuit: ElmoreChainPS needs len(taps)=%d == len(segs)=%d",
			len(taps), len(segs))
	}
	// Total downstream capacitance seen at each resistor.
	total := 0.0
	for i, s := range segs {
		total += s.CNear + s.CFar + taps[i]
	}
	delay := 0.0
	remaining := total
	// Driver sees all capacitance.
	delay += driverRes * remaining
	for i, s := range segs {
		// Resistance of segment i carries everything beyond its near cap.
		remaining -= s.CNear
		delay += s.ROhm * remaining
		remaining -= s.CFar + taps[i]
	}
	return delay * 1e-15 * 1e12, nil // ohm*fF -> ps
}
