package circuit

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"neurometer/internal/guard"
	"neurometer/internal/pat"
	"neurometer/internal/tech"
	"neurometer/internal/tech/techtest"
)

var n28 = techtest.MustByNode(28)

func TestWireElmoreMonotonicInLength(t *testing.T) {
	prev := 0.0
	for _, l := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		w := Wire{Node: n28, Layer: tech.WireIntermediate, LengthMM: l, LoadFF: 5}
		d := w.ElmoreDelayPS()
		if d <= prev {
			t.Errorf("delay must grow with length: %gmm -> %gps (prev %g)", l, d, prev)
		}
		prev = d
	}
}

func TestWireElmoreQuadraticGrowth(t *testing.T) {
	// Unrepeated wire delay grows superlinearly (RC both scale with L).
	w1 := Wire{Node: n28, Layer: tech.WireIntermediate, LengthMM: 1}
	w4 := Wire{Node: n28, Layer: tech.WireIntermediate, LengthMM: 4}
	r := w4.ElmoreDelayPS() / w1.ElmoreDelayPS()
	if r < 4.5 {
		t.Errorf("4x wire should be >4.5x slower unrepeated, got %.2fx", r)
	}
}

func TestWireLayersOrdering(t *testing.T) {
	// Global wires are faster per mm than local wires.
	loc := Wire{Node: n28, Layer: tech.WireLocal, LengthMM: 2}
	glb := Wire{Node: n28, Layer: tech.WireGlobal, LengthMM: 2}
	if glb.ElmoreDelayPS() >= loc.ElmoreDelayPS() {
		t.Errorf("global wire should be faster: %g vs %g", glb.ElmoreDelayPS(), loc.ElmoreDelayPS())
	}
}

func TestRepeatedWireLinearizes(t *testing.T) {
	long := Wire{Node: n28, Layer: tech.WireGlobal, LengthMM: 10, Bits: 1}
	rep, inserted := long.Repeated()
	if !inserted {
		t.Fatalf("10mm wire must need repeaters")
	}
	raw := long.Eval()
	if rep.DelayPS >= raw.DelayPS {
		t.Errorf("repeated wire must be faster: %g vs %g", rep.DelayPS, raw.DelayPS)
	}
	if rep.AreaUM2 <= raw.AreaUM2 {
		t.Errorf("repeaters must cost area")
	}
	// Repeated delay ~linear: 2x length ~ 2x delay (within 30%).
	long2 := long
	long2.LengthMM = 20
	rep2, _ := long2.Repeated()
	ratio := rep2.DelayPS / rep.DelayPS
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("repeated delay should be ~linear, 2x length gave %.2fx", ratio)
	}
	short := Wire{Node: n28, Layer: tech.WireGlobal, LengthMM: 0.05}
	if _, ins := short.Repeated(); ins {
		t.Errorf("50um wire should not need repeaters")
	}
}

func TestRepeatedMonotoneInLength(t *testing.T) {
	// The memory-array optimizer scores only the smallest port counts that
	// meet a throughput target, which is exact because its bus area and
	// energy never fall as the bus grows. Repeated delay is the exception:
	// it drops each time the wire gains a segment, which is why a latency
	// target keeps the full port search.
	drops := 0
	for _, nm := range tech.Nodes() {
		n := techtest.MustByNode(nm)
		for _, layer := range []tech.WireLayer{tech.WireLocal, tech.WireIntermediate, tech.WireGlobal} {
			lcrit := math.Sqrt(2 * n.InvRonOhm() * n.InvCinFF() /
				(n.WireResOhmPerMM[layer] * n.WireCapFFPerMM[layer]))
			for _, bits := range []int{1, 64, 2048} {
				w := Wire{Node: n, Layer: layer, Bits: bits}
				var prev pat.Result
				prevElmore := 0.0
				// 30 segment boundaries, 64 lengths between each pair.
				for i := 1; i <= 30*64; i++ {
					w.LengthMM = lcrit * float64(i) / 64
					res, _ := w.Repeated()
					elmore := w.ElmoreDelayPS()
					if res.AreaUM2 < prev.AreaUM2 || res.DynPJ < prev.DynPJ || elmore < prevElmore {
						t.Fatalf("%s %s %d bits: %.6g mm gives area %g dyn %g elmore %g, shorter wire gave %g %g %g",
							n, layer, bits, w.LengthMM, res.AreaUM2, res.DynPJ, elmore, prev.AreaUM2, prev.DynPJ, prevElmore)
					}
					if res.DelayPS < prev.DelayPS {
						drops++
					}
					prev, prevElmore = res, elmore
				}
			}
		}
	}
	if drops == 0 {
		t.Errorf("repeated delay never fell with length; the latency-target search no longer needs every port count")
	}
}

func TestPipelinedWireMeetsCycle(t *testing.T) {
	cycle := 1e12 / 700e6 // 700MHz in ps
	w := Wire{Node: n28, Layer: tech.WireGlobal, LengthMM: 12, Bits: 64}
	res, stages := w.Pipelined(cycle)
	if res.DelayPS > cycle {
		t.Errorf("pipelined stage delay %.0fps exceeds cycle %.0fps", res.DelayPS, cycle)
	}
	if stages < 1 {
		// 12mm at 28nm cannot be traversed in 1.43ns... unless repeaters are heroic.
		t.Logf("12mm wire fit in one cycle (stages=%d, delay=%.0fps)", stages, res.DelayPS)
	}
	short := Wire{Node: n28, Layer: tech.WireGlobal, LengthMM: 0.3, Bits: 64}
	_, st := short.Pipelined(cycle)
	if st != 0 {
		t.Errorf("short wire should not be pipelined, got %d stages", st)
	}
	// No cycle constraint: never pipelined.
	_, st = w.Pipelined(0)
	if st != 0 {
		t.Errorf("cycle=0 must disable pipelining")
	}
}

func TestWireBitsScaleAreaEnergyNotDelay(t *testing.T) {
	w1 := Wire{Node: n28, Layer: tech.WireIntermediate, LengthMM: 1, Bits: 1}
	w8 := Wire{Node: n28, Layer: tech.WireIntermediate, LengthMM: 1, Bits: 8}
	r1, r8 := w1.Eval(), w8.Eval()
	if math.Abs(r8.AreaUM2-8*r1.AreaUM2) > 1e-9 || math.Abs(r8.DynPJ-8*r1.DynPJ) > 1e-9 {
		t.Errorf("bus area/energy must scale with bits")
	}
	if r8.DelayPS != r1.DelayPS {
		t.Errorf("bus delay must not depend on bits")
	}
}

func TestElmoreChain(t *testing.T) {
	seg := PiFromWire(n28, tech.WireIntermediate, 0.5)
	segs := []PiRC{seg, seg, seg}
	taps := []float64{2, 2, 10}
	d, err := ElmoreChainPS(100, segs, taps)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("chain delay: %g", d)
	}
	// Equivalent single wire with same total length and end load should be
	// close (within 25%: the chain has distributed taps).
	w := Wire{Node: n28, Layer: tech.WireIntermediate, LengthMM: 1.5, DriverRes: 100, LoadFF: 10}
	single := w.ElmoreDelayPS()
	if d < single*0.75 {
		t.Errorf("chain with extra taps should not be much faster: chain=%g single=%g", d, single)
	}
	// More taps, more delay.
	d2, err := ElmoreChainPS(100, segs, []float64{20, 20, 20})
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d {
		t.Errorf("heavier taps must slow the chain: %g vs %g", d2, d)
	}
}

func TestElmoreChainMismatchIsInvalidConfig(t *testing.T) {
	// The length mismatch is an error at the API boundary (not a panic),
	// classified under the guard taxonomy.
	_, err := ElmoreChainPS(100, []PiRC{{}}, nil)
	if err == nil {
		t.Fatalf("expected error on len mismatch")
	}
	if !errors.Is(err, guard.ErrInvalidConfig) {
		t.Errorf("mismatch error must wrap guard.ErrInvalidConfig: %v", err)
	}
}

func TestDFFAndRegister(t *testing.T) {
	d := DFF{Node: n28}.Eval()
	if !d.Valid() || d.AreaUM2 <= 0 || d.DynPJ <= 0 || d.DelayPS <= 0 {
		t.Fatalf("DFF: %v", d)
	}
	r := Register{Node: n28, Bits: 32}.Eval()
	if math.Abs(r.AreaUM2-32*d.AreaUM2) > 1e-9 {
		t.Errorf("register must be 32 DFFs")
	}
	r0 := Register{Node: n28}.Eval() // zero bits clamps to 1
	if r0.AreaUM2 != d.AreaUM2 {
		t.Errorf("zero-bit register should clamp to 1")
	}
}

func TestDecoderScaling(t *testing.T) {
	small := Decoder{Node: n28, Outputs: 64}.Eval()
	big := Decoder{Node: n28, Outputs: 512}.Eval()
	if big.AreaUM2 <= small.AreaUM2 {
		t.Errorf("bigger decoder must be bigger")
	}
	if big.DelayPS < small.DelayPS {
		t.Errorf("bigger decoder can't be faster")
	}
	if !small.Valid() || !big.Valid() {
		t.Errorf("invalid decoder results")
	}
}

func TestMuxScaling(t *testing.T) {
	m2 := Mux{Node: n28, Inputs: 2, Bits: 32}.Eval()
	m16 := Mux{Node: n28, Inputs: 16, Bits: 32}.Eval()
	if m16.AreaUM2 <= m2.AreaUM2 || m16.DelayPS <= m2.DelayPS {
		t.Errorf("16:1 mux must be bigger and slower than 2:1")
	}
}

func TestCrossbarScaling(t *testing.T) {
	x5 := Crossbar{Node: n28, Inputs: 5, Outputs: 5, Bits: 64}.Eval()
	x10 := Crossbar{Node: n28, Inputs: 10, Outputs: 10, Bits: 64}.Eval()
	if x10.AreaUM2 < x5.AreaUM2*2 {
		t.Errorf("crossbar area should grow ~quadratically: %g -> %g", x5.AreaUM2, x10.AreaUM2)
	}
	if !x5.Valid() || !x10.Valid() {
		t.Errorf("invalid crossbar results")
	}
}

func TestAdderKinds(t *testing.T) {
	rip := Adder{Node: n28, Bits: 32, Kind: AdderRipple}.Eval()
	pre := Adder{Node: n28, Bits: 32, Kind: AdderPrefix}.Eval()
	if pre.DelayPS >= rip.DelayPS {
		t.Errorf("prefix adder must be faster: %g vs %g", pre.DelayPS, rip.DelayPS)
	}
	if pre.AreaUM2 <= rip.AreaUM2 {
		t.Errorf("prefix adder must be bigger: %g vs %g", pre.AreaUM2, rip.AreaUM2)
	}
}

func TestAdderWidthProperty(t *testing.T) {
	f := func(raw uint8) bool {
		bits := int(raw%63) + 2
		a := Adder{Node: n28, Bits: bits, Kind: AdderRipple}.Eval()
		b := Adder{Node: n28, Bits: bits * 2, Kind: AdderRipple}.Eval()
		return b.AreaUM2 > a.AreaUM2 && b.DelayPS > a.DelayPS && a.Valid() && b.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultiplierScaling(t *testing.T) {
	m8 := Multiplier{Node: n28, BitsA: 8, BitsB: 8}.Eval()
	m16 := Multiplier{Node: n28, BitsA: 16, BitsB: 16}.Eval()
	m32 := Multiplier{Node: n28, BitsA: 32, BitsB: 32}.Eval()
	if !(m8.AreaUM2 < m16.AreaUM2 && m16.AreaUM2 < m32.AreaUM2) {
		t.Errorf("multiplier area must grow with width: %g %g %g", m8.AreaUM2, m16.AreaUM2, m32.AreaUM2)
	}
	// Roughly quadratic: 16x16 should be ~3-5x the 8x8.
	r := m16.AreaUM2 / m8.AreaUM2
	if r < 2.5 || r > 6 {
		t.Errorf("16/8 multiplier area ratio out of range: %g", r)
	}
}

func TestFIFO(t *testing.T) {
	f := FIFO{Node: n28, Depth: 16, Bits: 8}.Eval()
	if !f.Valid() || f.AreaUM2 <= 0 {
		t.Fatalf("FIFO: %v", f)
	}
	deeper := FIFO{Node: n28, Depth: 64, Bits: 8}.Eval()
	if deeper.AreaUM2 <= f.AreaUM2 {
		t.Errorf("deeper FIFO must be bigger")
	}
	wider := FIFO{Node: n28, Depth: 16, Bits: 32}.Eval()
	if wider.AreaUM2 <= f.AreaUM2 {
		t.Errorf("wider FIFO must be bigger")
	}
}

func TestTechNodeOrderingForDelay(t *testing.T) {
	// The same adder gets faster and smaller on newer nodes.
	n65 := techtest.MustByNode(65)
	a65 := Adder{Node: n65, Bits: 32, Kind: AdderPrefix}.Eval()
	a28 := Adder{Node: n28, Bits: 32, Kind: AdderPrefix}.Eval()
	if a28.DelayPS >= a65.DelayPS || a28.AreaUM2 >= a65.AreaUM2 || a28.DynPJ >= a65.DynPJ {
		t.Errorf("28nm adder must beat 65nm on all axes")
	}
}

func TestWireMethodsLeaveReceiverUnchanged(t *testing.T) {
	// The Wire methods take a pointer receiver; Repeated evaluates a
	// shorter segment of the same bus and must not do it by rewriting the
	// receiver, or every later call on the wire would see the segment.
	cycle := 1e12 / 700e6
	wires := []Wire{
		{Node: n28, Layer: tech.WireLocal, LengthMM: 0.05, DriverRes: 300, LoadFF: 4},
		{Node: n28, Layer: tech.WireIntermediate, LengthMM: 3, Bits: 512},
		{Node: n28, Layer: tech.WireGlobal, LengthMM: 12, DriverRes: 50, LoadFF: 20, Bits: 64},
	}
	for _, w := range wires {
		orig := w
		eval := w.Eval()
		rep, ins := w.Repeated()
		pipe, stages := w.Pipelined(cycle)
		for i := 0; i < 2; i++ {
			if w != orig {
				t.Fatalf("%gmm wire changed by its own methods: %+v, want %+v", orig.LengthMM, w, orig)
			}
			if got := w.Eval(); got != eval {
				t.Errorf("%gmm Eval not repeatable: %+v then %+v", orig.LengthMM, eval, got)
			}
			if got, gotIns := w.Repeated(); got != rep || gotIns != ins {
				t.Errorf("%gmm Repeated not repeatable: %+v then %+v", orig.LengthMM, rep, got)
			}
			if got, gotStages := w.Pipelined(cycle); got != pipe || gotStages != stages {
				t.Errorf("%gmm Pipelined not repeatable: %+v then %+v", orig.LengthMM, pipe, got)
			}
		}
		if got := w.ElmoreDelayPS(); got != eval.DelayPS {
			t.Errorf("%gmm ElmoreDelayPS %g, Eval delay %g", orig.LengthMM, got, eval.DelayPS)
		}
	}
}
