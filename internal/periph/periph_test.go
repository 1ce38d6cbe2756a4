package periph

import (
	"testing"

	"neurometer/internal/tech/techtest"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{Node: techtest.MustByNode(28), Kind: Kind(99), GBps: 1}); err == nil {
		t.Errorf("unknown kind must fail")
	}
	if _, err := Build(Config{Node: techtest.MustByNode(28), Kind: HBMPort, GBps: -1}); err == nil {
		t.Errorf("negative bandwidth must fail")
	}
}

func TestTPUv1InterfaceCalibration(t *testing.T) {
	n := techtest.MustByNode(28).WithVdd(0.86)
	// DDR port at TPU-v1's ~34GB/s: the paper models the DRAM port at
	// ~6% of a ~300mm2 die -> 15-22 mm2.
	ddr, err := Build(Config{Node: n, Kind: DDRPort, GBps: 34})
	if err != nil {
		t.Fatal(err)
	}
	if a := ddr.AreaUM2() / 1e6; a < 12 || a > 25 {
		t.Errorf("DDR port area out of band: %.1f mm2", a)
	}
	// PCIe Gen3 x16 at 14GB/s: ~3% -> 7-12 mm2.
	pcie, err := Build(Config{Node: n, Kind: PCIePort, GBps: 14})
	if err != nil {
		t.Fatal(err)
	}
	if a := pcie.AreaUM2() / 1e6; a < 6 || a > 13 {
		t.Errorf("PCIe area out of band: %.1f mm2", a)
	}
}

func TestHBMScale(t *testing.T) {
	n := techtest.MustByNode(16).WithVdd(0.75)
	hbm, err := Build(Config{Node: n, Kind: HBMPort, GBps: 700})
	if err != nil {
		t.Fatal(err)
	}
	if a := hbm.AreaUM2() / 1e6; a < 15 || a > 60 {
		t.Errorf("HBM port area out of band: %.1f mm2", a)
	}
	if hbm.PeakW() < 15 || hbm.PeakW() > 60 {
		t.Errorf("HBM interface power out of band: %.1f W", hbm.PeakW())
	}
}

func TestPowerUtilizationInterpolation(t *testing.T) {
	p, err := Build(Config{Node: techtest.MustByNode(28), Kind: ICILink, GBps: 62})
	if err != nil {
		t.Fatal(err)
	}
	idle, full := p.PowerW(0), p.PowerW(1)
	if idle != p.IdleW() || full != p.PeakW() {
		t.Errorf("bounds: %g/%g vs %g/%g", idle, full, p.IdleW(), p.PeakW())
	}
	half := p.PowerW(0.5)
	if half <= idle || half >= full {
		t.Errorf("half utilization must be between idle and peak")
	}
	if p.PowerW(-1) != idle || p.PowerW(2) != full {
		t.Errorf("utilization must clamp")
	}
}

func TestAnalogScalesSlowly(t *testing.T) {
	// PHYs shrink much more slowly than logic across nodes.
	a28, err := Build(Config{Node: techtest.MustByNode(28), Kind: HBMPort, GBps: 700})
	if err != nil {
		t.Fatal(err)
	}
	a16, err := Build(Config{Node: techtest.MustByNode(16), Kind: HBMPort, GBps: 700})
	if err != nil {
		t.Fatal(err)
	}
	n16, n28 := techtest.MustByNode(16), techtest.MustByNode(28)
	logicShrink := n16.GateAreaUM2() / n28.GateAreaUM2()
	analogShrink := a16.AreaUM2() / a28.AreaUM2()
	if analogShrink <= logicShrink || analogShrink >= 1 {
		t.Errorf("analog shrink %.2f should be between logic shrink %.2f and 1", analogShrink, logicShrink)
	}
}

func TestDMAIsDigital(t *testing.T) {
	d28, err := Build(Config{Node: techtest.MustByNode(28), Kind: DMAEngine, GBps: 100})
	if err != nil {
		t.Fatal(err)
	}
	d16, err := Build(Config{Node: techtest.MustByNode(16), Kind: DMAEngine, GBps: 100})
	if err != nil {
		t.Fatal(err)
	}
	n16, n28 := techtest.MustByNode(16), techtest.MustByNode(28)
	logicShrink := n16.GateAreaUM2() / n28.GateAreaUM2()
	got := d16.AreaUM2() / d28.AreaUM2()
	if got > logicShrink*1.05 {
		t.Errorf("DMA should scale like logic: got %.3f want ~%.3f", got, logicShrink)
	}
}

func TestResultAndString(t *testing.T) {
	for _, k := range []Kind{DDRPort, HBMPort, PCIePort, ICILink, DMAEngine, LPDDRPort} {
		p, err := Build(Config{Node: techtest.MustByNode(28), Kind: k, GBps: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Result().Valid() || p.Result().DynPJ <= 0 {
			t.Errorf("%v: invalid result", k)
		}
		if p.String() == "" || k.String() == "" {
			t.Errorf("%v: empty strings", k)
		}
	}
	// Zero-bandwidth port is legal (stub interface) with zero pJ/B.
	p, err := Build(Config{Node: techtest.MustByNode(28), Kind: PCIePort, GBps: 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Result().DynPJ != 0 {
		t.Errorf("zero-bandwidth port pJ/B: %g", p.Result().DynPJ)
	}
}

func TestLPDDRSmallerThanDDR(t *testing.T) {
	n := techtest.MustByNode(28)
	lp, err := Build(Config{Node: n, Kind: LPDDRPort, GBps: 12.8})
	if err != nil {
		t.Fatal(err)
	}
	ddr, err := Build(Config{Node: n, Kind: DDRPort, GBps: 12.8})
	if err != nil {
		t.Fatal(err)
	}
	if lp.AreaUM2() >= ddr.AreaUM2() {
		t.Errorf("LPDDR must be smaller than server DDR: %g vs %g", lp.AreaUM2(), ddr.AreaUM2())
	}
	if lp.IdleW() >= ddr.IdleW() {
		t.Errorf("LPDDR must idle lower")
	}
}

func TestAnchorTabulated(t *testing.T) {
	// analogScale anchors on a package-level Reference lookup whose error
	// is discarded; this pins the invariant that makes that safe.
	if anchorRef.Nm != 28 || anchorRef.GateDensityPerMM2 <= 0 {
		t.Fatalf("28nm must be a tabulated tech entry, got %+v", anchorRef)
	}
}
