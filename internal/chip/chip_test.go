package chip

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"neurometer/internal/maclib"
	"neurometer/internal/periph"
)

// dcPoint builds a datacenter design point (X, N, Tx, Ty) per Table I.
func dcPoint(x, n, tx, ty int) Config {
	tiles := tx * ty
	memPerCore := int64(32<<20) / int64(tiles)
	return Config{
		Name: "dc", TechNM: 28, ClockHz: 700e6,
		Tx: tx, Ty: ty,
		Core: CoreConfig{
			NumTUs: n, TURows: x, TUCols: x, TUDataType: maclib.Int8,
			HasSU: true,
			Mem:   []MemSegment{{Name: "spad", CapacityBytes: memPerCore}},
		},
		NoCBisectionGBps: 256,
		OffChip:          []OffChipPort{{Kind: periph.HBMPort, GBps: 700}},
	}
}

func TestValidation(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Errorf("empty config must fail")
	}
	c := dcPoint(64, 2, 2, 4)
	c.TechNM = 0
	if _, err := Build(c); err == nil {
		t.Errorf("missing tech must fail")
	}
	c = dcPoint(64, 2, 2, 4)
	c.ClockHz = 0
	if _, err := Build(c); err == nil {
		t.Errorf("no clock and no TOPS target must fail")
	}
	c = dcPoint(0, 1, 1, 1)
	c.Core.NumTUs = 0
	c.Core.VULanes = 0
	if _, err := Build(c); err == nil {
		t.Errorf("compute-less core must fail")
	}
}

func TestPeakTOPSArithmetic(t *testing.T) {
	// (64, 2, 2, 4): 16 TUs x 4096 MACs x 2 ops x 0.7GHz = 91.75 TOPS.
	c, err := Build(dcPoint(64, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 64 * 64 * 2 * 8 * 0.7e9 / 1e12
	if math.Abs(c.PeakTOPS()-want) > 1e-9 {
		t.Errorf("PeakTOPS = %g, want %g", c.PeakTOPS(), want)
	}
	if c.Tiles() != 8 {
		t.Errorf("tiles: %d", c.Tiles())
	}
}

func TestClockSearchFromTOPSTarget(t *testing.T) {
	cfg := dcPoint(128, 4, 1, 1)
	cfg.ClockHz = 0
	cfg.TargetTOPS = 91.75
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 x 128x128 x 2 ops = 131072 ops/cycle -> 700 MHz for 91.75 TOPS.
	if math.Abs(c.ClockHz()-700e6) > 1e6 {
		t.Errorf("searched clock %.1f MHz, want ~700", c.ClockHz()/1e6)
	}
	if math.Abs(c.PeakTOPS()-91.75) > 0.1 {
		t.Errorf("peak %.2f, want 91.75", c.PeakTOPS())
	}
}

func TestTimingFailureAtAbsurdClock(t *testing.T) {
	cfg := dcPoint(64, 1, 1, 1)
	cfg.ClockHz = 20e9 // 20 GHz: nothing at 28nm closes this
	if _, err := Build(cfg); err == nil {
		t.Errorf("expected a build failure at 20GHz")
	}
}

func TestAutoScalingRules(t *testing.T) {
	c, err := Build(dcPoint(32, 4, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	// VU lanes match the TU array length.
	if c.Core.Cfg.VULanes != 32 {
		t.Errorf("VU lanes = %d, want 32", c.Core.Cfg.VULanes)
	}
	// VReg ports: 2R1W per functional unit (4 TUs + VU = 5 FUs).
	if c.Core.VU.Cfg.VRegReadPorts != 10 || c.Core.VU.Cfg.VRegWritePorts != 5 {
		t.Errorf("VReg ports %dR%dW, want 10R5W",
			c.Core.VU.Cfg.VRegReadPorts, c.Core.VU.Cfg.VRegWritePorts)
	}
	// Shared port group caps at 4R2W.
	cfg := dcPoint(32, 4, 2, 2)
	cfg.Core.SharedVRegPorts = true
	cs, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Core.VU.Cfg.VRegReadPorts != 4 || cs.Core.VU.Cfg.VRegWritePorts != 2 {
		t.Errorf("shared VReg ports %dR%dW, want 4R2W",
			cs.Core.VU.Cfg.VRegReadPorts, cs.Core.VU.Cfg.VRegWritePorts)
	}
	if cs.Core.VU.AreaUM2() >= c.Core.VU.AreaUM2() {
		t.Errorf("shared ports must shrink the VReg")
	}
}

func TestNoCTopologyAutoRule(t *testing.T) {
	small, err := Build(dcPoint(64, 4, 1, 2)) // 2 tiles -> ring
	if err != nil {
		t.Fatal(err)
	}
	if got := small.NoC.Cfg.Topology.String(); got != "ring" {
		t.Errorf("2 tiles should use ring, got %s", got)
	}
	big, err := Build(dcPoint(16, 4, 4, 8)) // 32 tiles -> mesh
	if err != nil {
		t.Fatal(err)
	}
	if got := big.NoC.Cfg.Topology.String(); got != "mesh2d" {
		t.Errorf("32 tiles should use mesh, got %s", got)
	}
}

func TestBudgetsEnforced(t *testing.T) {
	cfg := dcPoint(64, 2, 2, 4)
	cfg.AreaBudgetMM2 = 10
	if _, err := Build(cfg); err == nil || !strings.Contains(err.Error(), "area") {
		t.Errorf("area budget must fail, got %v", err)
	}
	cfg = dcPoint(64, 2, 2, 4)
	cfg.PowerBudgetW = 5
	if _, err := Build(cfg); err == nil || !strings.Contains(err.Error(), "TDP") {
		t.Errorf("power budget must fail, got %v", err)
	}
}

func TestBreakdownConsistency(t *testing.T) {
	c, err := Build(dcPoint(64, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	bd := c.AreaBreakdown()
	if !bd.Consistent(1e-6) {
		t.Errorf("breakdown tree inconsistent:\n%s", bd)
	}
	if math.Abs(bd.AreaMM2-c.AreaMM2()) > 1e-6 {
		t.Errorf("breakdown total %.3f != AreaMM2 %.3f", bd.AreaMM2, c.AreaMM2())
	}
	if math.Abs(bd.PowerW-c.TDPW()) > c.TDPW()*1e-9 {
		t.Errorf("breakdown power %.3f != TDP %.3f", bd.PowerW, c.TDPW())
	}
	// Memory should dominate core area for datacenter points (§III-B.1).
	cores := bd.Child("cores")
	if cores == nil || cores.Child("mem") == nil {
		t.Fatalf("missing cores/mem in breakdown")
	}
}

func TestWhiteSpaceScaling(t *testing.T) {
	base, err := Build(dcPoint(64, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dcPoint(64, 2, 2, 4)
	cfg.WhiteSpaceFrac = 0.2
	ws, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := base.AreaMM2() / 0.8
	if math.Abs(ws.AreaMM2()-want) > 0.5 {
		t.Errorf("white space: got %.1f want %.1f", ws.AreaMM2(), want)
	}
	if !ws.AreaBreakdown().Consistent(1e-6) {
		t.Errorf("white-space breakdown inconsistent")
	}
}

func TestTimingReport(t *testing.T) {
	c, err := Build(dcPoint(64, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	rep := c.TimingReport()
	if len(rep) < 5 {
		t.Fatalf("timing report too short: %d", len(rep))
	}
	for i := 1; i < len(rep); i++ {
		if rep[i].DelayPS > rep[i-1].DelayPS {
			t.Errorf("timing report not sorted")
		}
	}
	for _, e := range rep {
		if e.SlackPS < 0 {
			t.Errorf("component %s misses timing by %.0fps", e.Component, -e.SlackPS)
		}
	}
	name, d := c.CriticalPath()
	if name != rep[0].Component || d != rep[0].DelayPS {
		t.Errorf("CriticalPath mismatch")
	}
}

func TestRuntimePowerBelowTDP(t *testing.T) {
	c, err := Build(dcPoint(64, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	// 40% utilization activity.
	util := 0.4
	act := Activity{
		TUMACsPerSec:        util * c.PeakTOPS() / 2 * 1e12,
		VUOpsPerSec:         util * float64(c.Core.Cfg.VULanes) * float64(c.Tiles()) * c.ClockHz() * 0.2,
		MemReadBytesPerSec:  100e9,
		MemWriteBytesPerSec: 50e9,
		NoCBytesPerSec:      50e9,
		OffChipBytesPerSec:  300e9,
		SUInstrPerSec:       float64(c.Tiles()) * c.ClockHz() * 0.2,
	}
	w, bd := c.RuntimePower(act)
	if w <= 0 || w >= c.TDPW() {
		t.Errorf("runtime power %.1fW should be below TDP %.1fW", w, c.TDPW())
	}
	if !bd.Consistent(1e-9) {
		t.Errorf("runtime breakdown inconsistent")
	}
	// More activity -> more power.
	act2 := act
	act2.TUMACsPerSec *= 2
	w2, _ := c.RuntimePower(act2)
	if w2 <= w {
		t.Errorf("more MACs must burn more power: %g vs %g", w2, w)
	}
	// Clock gating reduces idle power.
	actG := act
	actG.ClockGateIdleFrac = 0.8
	wg, _ := c.RuntimePower(actG)
	if wg >= w {
		t.Errorf("clock gating must reduce power: %g vs %g", wg, w)
	}
}

func TestEfficiencySummary(t *testing.T) {
	c, err := Build(dcPoint(64, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	opsPerSec := 0.35 * c.PeakTOPS() * 1e12
	e := c.Efficiency(opsPerSec, Activity{TUMACsPerSec: opsPerSec / 2})
	if math.Abs(e.Utilization-0.35) > 1e-9 {
		t.Errorf("utilization: %g", e.Utilization)
	}
	if e.TOPSPerWatt <= 0 || e.TOPSPerTCO <= 0 {
		t.Errorf("efficiency metrics: %+v", e)
	}
	if e.String() == "" {
		t.Errorf("empty summary string")
	}
}

// TestEfficiencyMatchesRuntimePower pins Efficiency's power to the total
// of RuntimePower's breakdown, bit for bit, on chips with every
// peripheral kind (several ports of one kind included), and checks that
// Efficiency allocates nothing.
func TestEfficiencyMatchesRuntimePower(t *testing.T) {
	many := dcPoint(64, 2, 2, 4)
	many.OffChip = []OffChipPort{
		{Kind: periph.DDRPort, GBps: 30, Count: 2}, {Kind: periph.HBMPort, GBps: 700},
		{Kind: periph.PCIePort, GBps: 16}, {Kind: periph.ICILink, GBps: 60, Count: 4},
		{Kind: periph.DMAEngine, GBps: 100}, {Kind: periph.LPDDRPort, GBps: 25},
	}
	a := Activity{
		TUMACsPerSec: 3e13, VUOpsPerSec: 1e11, SUInstrPerSec: 1e9,
		MemReadBytesPerSec: 2e11, MemWriteBytesPerSec: 1e11, NoCBytesPerSec: 5e10,
		OffChipBytesPerSec: 1e11, HostBytesPerSec: 1e9, ICIBytesPerSec: 2e10,
		ClockGateIdleFrac: 0.5,
	}
	for _, cfg := range []Config{dcPoint(64, 2, 2, 4), dcPoint(8, 4, 8, 16), many} {
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, bd := c.RuntimePower(a)
		e := c.Efficiency(6e13, a)
		if math.Float64bits(e.PowerW) != math.Float64bits(w) {
			t.Errorf("Efficiency power %v, RuntimePower %v", e.PowerW, w)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.Efficiency(6e13, a) }); allocs != 0 {
			t.Errorf("Efficiency allocates %v times per call", allocs)
		}
		if len(cfg.OffChip) > 1 {
			var names []string
			for _, ch := range bd.Children {
				names = append(names, ch.Name)
			}
			if got := strings.Join(names, " "); got != "tu vu su mem ctrl cdb noc ddr hbm pcie ici dma lpddr misc" {
				t.Errorf("runtime breakdown children: %s", got)
			}
		}
	}
}

func TestBrawnyVsWimpyShape(t *testing.T) {
	// A wimpy chip with the same peak TOPS needs far more area: per-core
	// overhead (SU, ctrl, NoC routers) multiplies (§III-B.1).
	brawny, err := Build(dcPoint(64, 2, 2, 4)) // 91.75 peak TOPS
	if err != nil {
		t.Fatal(err)
	}
	wimpy, err := Build(dcPoint(8, 4, 8, 16)) // 128 cores x 4 8x8 TUs = 45.9 TOPS
	if err != nil {
		t.Fatal(err)
	}
	brawnyAreaPerTOPS := brawny.AreaMM2() / brawny.PeakTOPS()
	wimpyAreaPerTOPS := wimpy.AreaMM2() / wimpy.PeakTOPS()
	if wimpyAreaPerTOPS < 2*brawnyAreaPerTOPS {
		t.Errorf("wimpy should need >2x area/TOPS: %.2f vs %.2f", wimpyAreaPerTOPS, brawnyAreaPerTOPS)
	}
	if wimpy.PeakTOPSPerWatt() >= brawny.PeakTOPSPerWatt() {
		t.Errorf("brawny should lead peak TOPS/W: %.3f vs %.3f",
			brawny.PeakTOPSPerWatt(), wimpy.PeakTOPSPerWatt())
	}
}

func TestRTBasedChip(t *testing.T) {
	cfg := Config{
		Name: "rt-chip", TechNM: 28, ClockHz: 700e6,
		Tx: 1, Ty: 2,
		Core: CoreConfig{
			NumRTs: 4, RTInputs: 1024, TUDataType: maclib.Int8,
			HasSU: true,
			Mem:   []MemSegment{{Name: "spad", CapacityBytes: 16 << 20}},
		},
		NoCBisectionGBps: 256,
	}
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Core.RT == nil || c.Core.TU != nil {
		t.Fatalf("expected RT-only core")
	}
	// 2 cores x 4 RTs x 1024 x 2 ops x 0.7GHz = 11.5 TOPS.
	if math.Abs(c.PeakTOPS()-11.47) > 0.1 {
		t.Errorf("RT chip peak: %.2f", c.PeakTOPS())
	}
	if !c.AreaBreakdown().Consistent(1e-6) {
		t.Errorf("breakdown inconsistent")
	}
}

func TestReportRenders(t *testing.T) {
	c, err := Build(dcPoint(32, 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	for _, want := range []string{"TOPS", "timing", "breakdown", "tu"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestJSONReport(t *testing.T) {
	c, err := Build(dcPoint(64, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	rep := c.JSONReport()
	if rep.PeakTOPS != c.PeakTOPS() || rep.AreaMM2 != c.AreaMM2() || rep.TDPW != c.TDPW() {
		t.Errorf("JSON report totals diverge from the chip")
	}
	if len(rep.Area) == 0 || len(rep.Timing) == 0 {
		t.Errorf("JSON report missing sections")
	}
	// The tree must carry the core components.
	var sawCores bool
	for _, n := range rep.Area {
		if n.Name == "cores" {
			sawCores = true
			if len(n.Children) < 4 {
				t.Errorf("cores node should have component children, got %d", len(n.Children))
			}
		}
	}
	if !sawCores {
		t.Errorf("JSON report missing cores node")
	}
	raw, err := c.MarshalReport()
	if err != nil {
		t.Fatal(err)
	}
	var back JSONReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Name != rep.Name || back.Tiles != rep.Tiles {
		t.Errorf("round-trip mismatch")
	}
}

func TestEnergyTable(t *testing.T) {
	c, err := Build(dcPoint(64, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	ert := c.EnergyTable()
	want := map[string]bool{
		"tu/mac": false, "vu/lane_op": false, "su/instruction": false,
		"mem.spad/read": false, "mem.spad/write": false,
		"cdb/byte": false, "noc/flit_hop": false, "hbm/byte": false,
	}
	for _, e := range ert {
		key := e.Component + "/" + e.Action
		if _, ok := want[key]; ok {
			want[key] = true
		}
		if e.EnergyPJ <= 0 {
			t.Errorf("%s: non-positive energy %g", key, e.EnergyPJ)
		}
		if e.Unit == "" {
			t.Errorf("%s: missing unit", key)
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("energy table missing %s", k)
		}
	}
	raw, err := c.MarshalEnergyTable()
	if err != nil {
		t.Fatal(err)
	}
	var back []EnergyEntry
	if err := json.Unmarshal(raw, &back); err != nil || len(back) != len(ert) {
		t.Errorf("ERT does not round-trip: %v", err)
	}
	// The RT variant exports rt/mac.
	rtCfg := Config{
		Name: "rt", TechNM: 28, ClockHz: 700e6, Tx: 1, Ty: 1,
		Core: CoreConfig{NumRTs: 2, RTInputs: 256, TUDataType: maclib.Int8,
			Mem: []MemSegment{{Name: "spad", CapacityBytes: 1 << 20}}},
	}
	rc, err := Build(rtCfg)
	if err != nil {
		t.Fatal(err)
	}
	var sawRT bool
	for _, e := range rc.EnergyTable() {
		if e.Component == "rt" && e.Action == "mac" {
			sawRT = true
		}
	}
	if !sawRT {
		t.Errorf("RT chip must export rt/mac energy")
	}
}

func TestRuntimeTrace(t *testing.T) {
	c, err := Build(dcPoint(64, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	busy := Activity{TUMACsPerSec: 0.5 * c.PeakTOPS() / 2 * 1e12, OffChipBytesPerSec: 400e9}
	idle := Activity{ClockGateIdleFrac: 0.8}
	res, err := c.RuntimeTrace([]TraceSample{
		{DurationSec: 0.010, Activity: busy},
		{DurationSec: 0.030, Activity: idle},
		{DurationSec: 0.010, Activity: busy},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points: %d", len(res.Points))
	}
	if res.TotalSec != 0.05 {
		t.Errorf("total time: %g", res.TotalSec)
	}
	// Busy intervals dominate the peak; the average sits between idle and
	// busy and below TDP.
	if res.PeakPowerW != res.Points[0].PowerW {
		t.Errorf("peak should be the busy interval")
	}
	if res.AvgPowerW <= res.Points[1].PowerW || res.AvgPowerW >= res.PeakPowerW {
		t.Errorf("avg %.1fW outside (idle %.1f, peak %.1f)",
			res.AvgPowerW, res.Points[1].PowerW, res.PeakPowerW)
	}
	if res.PeakPowerW >= c.TDPW() {
		t.Errorf("trace peak must stay under TDP")
	}
	wantE := res.Points[0].PowerW*0.01 + res.Points[1].PowerW*0.03 + res.Points[2].PowerW*0.01
	if math.Abs(res.EnergyJ-wantE) > 1e-9 {
		t.Errorf("energy accounting: %g vs %g", res.EnergyJ, wantE)
	}
	// Error paths.
	if _, err := c.RuntimeTrace(nil); err == nil {
		t.Errorf("empty trace must fail")
	}
	if _, err := c.RuntimeTrace([]TraceSample{{DurationSec: 0}}); err == nil {
		t.Errorf("zero-duration sample must fail")
	}
}

func TestParseTrace(t *testing.T) {
	raw := []byte(`[{"duration_sec": 0.01, "activity": {"TUMACsPerSec": 1e12}}]`)
	samples, err := ParseTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Activity.TUMACsPerSec != 1e12 {
		t.Errorf("parsed: %+v", samples)
	}
	if _, err := ParseTrace([]byte("{broken")); err == nil {
		t.Errorf("bad JSON must fail")
	}
}

func TestInterpolatedNodeChip(t *testing.T) {
	// A 40nm build exercises the geometric node interpolation end to end;
	// it must land between the 28nm and 45nm builds on area and energy.
	build := func(nm int) *Chip {
		cfg := dcPoint(32, 2, 1, 2)
		cfg.TechNM = nm
		c, err := Build(cfg)
		if err != nil {
			t.Fatalf("%dnm: %v", nm, err)
		}
		return c
	}
	c28, c40, c45 := build(28), build(40), build(45)
	if !(c28.AreaMM2() < c40.AreaMM2() && c40.AreaMM2() < c45.AreaMM2()) {
		t.Errorf("area must interpolate: 28=%.1f 40=%.1f 45=%.1f",
			c28.AreaMM2(), c40.AreaMM2(), c45.AreaMM2())
	}
	if !(c28.TDPW() < c40.TDPW() && c40.TDPW() < c45.TDPW()) {
		t.Errorf("TDP must interpolate: 28=%.1f 40=%.1f 45=%.1f",
			c28.TDPW(), c40.TDPW(), c45.TDPW())
	}
}

func TestVddOverrideChip(t *testing.T) {
	base := dcPoint(32, 2, 1, 2)
	nominal, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	lv := dcPoint(32, 2, 1, 2)
	lv.Vdd = 0.80 // undervolt the 0.9V node
	low, err := Build(lv)
	if err != nil {
		t.Fatal(err)
	}
	if low.TDPW() >= nominal.TDPW() {
		t.Errorf("undervolting must cut TDP: %.1f vs %.1f", low.TDPW(), nominal.TDPW())
	}
	if low.Node.Vdd != 0.80 {
		t.Errorf("node Vdd: %g", low.Node.Vdd)
	}
	// Area barely changes with voltage (only pipelining decisions shift:
	// slower gates at low Vdd can need extra pipeline registers).
	if math.Abs(low.AreaMM2()-nominal.AreaMM2()) > 0.02*nominal.AreaMM2() {
		t.Errorf("voltage should barely change area: %.2f vs %.2f", low.AreaMM2(), nominal.AreaMM2())
	}
}

func TestHybridTUPlusRTCore(t *testing.T) {
	// A core can carry both systolic arrays and reduction trees; peak ops
	// add up across both fabrics.
	cfg := Config{
		Name: "hybrid", TechNM: 28, ClockHz: 700e6, Tx: 1, Ty: 1,
		Core: CoreConfig{
			NumTUs: 1, TURows: 32, TUCols: 32, TUDataType: maclib.Int8,
			NumRTs: 2, RTInputs: 256,
			Mem: []MemSegment{{Name: "spad", CapacityBytes: 2 << 20}},
		},
	}
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := float64(2*32*32 + 2*2*256)
	if got := c.Core.PeakOpsPerCycle(); math.Abs(got-wantOps) > 1e-9 {
		t.Errorf("hybrid peak ops/cycle: %g, want %g", got, wantOps)
	}
	bd := c.AreaBreakdown()
	if bd.Find("tu") == nil || bd.Find("rt") == nil {
		t.Errorf("hybrid breakdown must carry both tu and rt")
	}
	if !bd.Consistent(1e-6) {
		t.Errorf("hybrid breakdown inconsistent")
	}
}

func TestSevenNMChipBuilds(t *testing.T) {
	cfg := dcPoint(64, 2, 2, 4)
	cfg.TechNM = 7
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(dcPoint(64, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if c.AreaMM2() >= base.AreaMM2()/2 {
		t.Errorf("7nm should be far denser than 28nm: %.1f vs %.1f", c.AreaMM2(), base.AreaMM2())
	}
	if c.PeakTOPSPerWatt() <= base.PeakTOPSPerWatt() {
		t.Errorf("7nm should be more efficient")
	}
}
