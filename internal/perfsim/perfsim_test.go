package perfsim

import (
	"encoding/csv"
	"fmt"
	"strings"
	"testing"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/maclib"
	"neurometer/internal/periph"
	"neurometer/internal/workloads"
)

// dcPoint builds a Table-I datacenter design point (X, N, Tx, Ty).
func dcPoint(t *testing.T, x, n, tx, ty int) *chip.Chip {
	t.Helper()
	tiles := tx * ty
	c, err := chip.Build(chip.Config{
		Name: fmt.Sprintf("(%d,%d,%d,%d)", x, n, tx, ty), TechNM: 28, ClockHz: 700e6,
		Tx: tx, Ty: ty,
		Core: chip.CoreConfig{
			NumTUs: n, TURows: x, TUCols: x, TUDataType: maclib.Int8, HasSU: true,
			Mem: []chip.MemSegment{{Name: "spad", CapacityBytes: int64(32<<20) / int64(tiles)}},
		},
		NoCBisectionGBps: 256,
		OffChip:          []chip.OffChipPort{{Kind: periph.HBMPort, GBps: 700}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSimulateValidation(t *testing.T) {
	c := dcPoint(t, 64, 2, 2, 4)
	g := workloads.ResNet50()
	if _, err := Simulate(c, g, 0, DefaultOptions()); err == nil {
		t.Errorf("batch 0 must fail")
	}
	bad := *g
	bad.Layers = nil
	if _, err := Simulate(c, &bad, 1, DefaultOptions()); err == nil {
		t.Errorf("empty graph must fail")
	}
	if _, err := Simulate(c, nil, 1, DefaultOptions()); err == nil {
		t.Errorf("nil graph must fail")
	}
}

func TestBasicInvariants(t *testing.T) {
	c := dcPoint(t, 64, 2, 2, 4)
	for _, g := range workloads.All() {
		r, err := Simulate(c, g, 4, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Errorf("%s: utilization %g out of (0,1]", g.Name, r.Utilization)
		}
		if r.AchievedTOPS <= 0 || r.AchievedTOPS > c.PeakTOPS() {
			t.Errorf("%s: achieved %g vs peak %g", g.Name, r.AchievedTOPS, c.PeakTOPS())
		}
		if r.FPS <= 0 || r.TimeSec <= 0 {
			t.Errorf("%s: degenerate timing", g.Name)
		}
		if len(r.Layers) != len(g.Layers) {
			t.Errorf("%s: layer stats %d != %d", g.Name, len(r.Layers), len(g.Layers))
		}
		if r.Activity.TUMACsPerSec <= 0 || r.Activity.MemReadBytesPerSec <= 0 {
			t.Errorf("%s: empty activity", g.Name)
		}
	}
}

func TestBatchImprovesThroughput(t *testing.T) {
	// Fig. 9: throughput grows significantly from batch 1 to 64.
	c := dcPoint(t, 64, 2, 2, 4)
	for _, g := range workloads.All() {
		r1, err := Simulate(c, g, 1, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		r64, err := Simulate(c, g, 64, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if r64.FPS < 1.5*r1.FPS {
			t.Errorf("%s: batching 64 should raise fps >1.5x: %.0f -> %.0f", g.Name, r1.FPS, r64.FPS)
		}
		if r64.LatencySec <= r1.LatencySec {
			t.Errorf("%s: larger batch must have larger batch latency", g.Name)
		}
	}
}

func TestSoftwareOptimizationsHelp(t *testing.T) {
	// Fig. 7: the graph optimizations significantly improve throughput,
	// especially at small batch sizes.
	c := dcPoint(t, 64, 2, 2, 4)
	for _, g := range workloads.All() {
		for _, bs := range []int{1, 16} {
			on, err := Simulate(c, g, bs, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			off, err := Simulate(c, g, bs, NoOptimizations())
			if err != nil {
				t.Fatal(err)
			}
			if on.FPS <= off.FPS {
				t.Errorf("%s bs=%d: optimizations must help: %.0f vs %.0f fps",
					g.Name, bs, on.FPS, off.FPS)
			}
		}
		// The gain is larger at batch 1 than at a large batch (Fig. 7 shape).
		on1, _ := Simulate(c, g, 1, DefaultOptions())
		off1, _ := Simulate(c, g, 1, NoOptimizations())
		on256, _ := Simulate(c, g, 256, DefaultOptions())
		off256, _ := Simulate(c, g, 256, NoOptimizations())
		gain1 := on1.FPS / off1.FPS
		gain256 := on256.FPS / off256.FPS
		if gain1 <= gain256*0.8 {
			t.Errorf("%s: small-batch gain (%.2fx) should not trail large-batch gain (%.2fx)",
				g.Name, gain1, gain256)
		}
	}
}

func TestWimpyHigherUtilBrawnyHigherThroughput(t *testing.T) {
	// The central Fig. 10 shape at batch 1.
	brawny := dcPoint(t, 64, 2, 2, 4)
	wimpy := dcPoint(t, 8, 4, 4, 8)
	var brawnyTOPS, wimpyTOPS, brawnyUtil, wimpyUtil float64
	for _, g := range workloads.All() {
		rb, err := Simulate(brawny, g, 1, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rw, err := Simulate(wimpy, g, 1, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		brawnyTOPS += rb.AchievedTOPS
		wimpyTOPS += rw.AchievedTOPS
		brawnyUtil += rb.Utilization
		wimpyUtil += rw.Utilization
	}
	if wimpyUtil <= brawnyUtil {
		t.Errorf("wimpy must win utilization: %.2f vs %.2f", wimpyUtil/3, brawnyUtil/3)
	}
	if brawnyTOPS <= wimpyTOPS {
		t.Errorf("brawny must win throughput: %.2f vs %.2f", brawnyTOPS/3, wimpyTOPS/3)
	}
}

func TestEfficiencyThroughputTradeoff(t *testing.T) {
	// §III-B.2: choosing (64,4,1,2) over (64,2,2,4) at batch 1 sacrifices a
	// modest share of achieved TOPS (paper: <16%, ours: ~25%) for >2x
	// cost efficiency.
	thr := dcPoint(t, 64, 2, 2, 4)
	eff := dcPoint(t, 64, 4, 1, 2)
	var thrTOPS, effTOPS, thrCost, effCost float64
	for _, g := range workloads.All() {
		rt, err := Simulate(thr, g, 1, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		re, err := Simulate(eff, g, 1, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		thrTOPS += rt.AchievedTOPS / 3
		effTOPS += re.AchievedTOPS / 3
		thrCost += thr.Efficiency(rt.AchievedTOPS*1e12, rt.Activity).TOPSPerTCO / 3
		effCost += eff.Efficiency(re.AchievedTOPS*1e12, re.Activity).TOPSPerTCO / 3
	}
	ratio := effTOPS / thrTOPS
	if ratio < 0.65 || ratio >= 1.0 {
		t.Errorf("achieved-TOPS ratio out of band: %.2f (paper ~0.84)", ratio)
	}
	gain := effCost / thrCost
	if gain < 1.8 {
		t.Errorf("cost-efficiency gain %.2fx, want >1.8x (paper 2.1x)", gain)
	}
}

func TestLatencyLimitedBatch(t *testing.T) {
	// Fig. 9: 10 ms SLO batch sizes on (64,2,2,4) are 16/4/32 for
	// ResNet/NasNet/Inception; we accept one power-of-two step of slack.
	c := dcPoint(t, 64, 2, 2, 4)
	for _, tc := range []struct {
		model string
		paper int
	}{
		{"resnet", 16}, {"nasnet", 4}, {"inception", 32},
	} {
		g, err := workloads.ByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		batch, r, err := LatencyLimitedBatch(c, g, 10e-3, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if r.LatencySec > 10e-3 && batch > 1 {
			t.Errorf("%s: selected batch %d misses the SLO: %.1fms", tc.model, batch, r.LatencySec*1e3)
		}
		if batch < tc.paper/2 || batch > tc.paper*2 {
			t.Errorf("%s: latency-limited batch %d vs paper %d (allow one 2x step)",
				tc.model, batch, tc.paper)
		}
	}
}

func TestRTChipRejected(t *testing.T) {
	c, err := chip.Build(chip.Config{
		Name: "rt", TechNM: 28, ClockHz: 700e6, Tx: 1, Ty: 1,
		Core: chip.CoreConfig{NumRTs: 4, RTInputs: 1024, TUDataType: maclib.Int8,
			Mem: []chip.MemSegment{{Name: "spad", CapacityBytes: 8 << 20}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(c, workloads.ResNet50(), 1, DefaultOptions()); err == nil {
		t.Errorf("RT-only chips must be rejected (they use the sparse roofline)")
	}
}

func TestRuntimePowerBelowTDP(t *testing.T) {
	c := dcPoint(t, 64, 2, 2, 4)
	for _, bs := range []int{1, 64, 256} {
		for _, g := range workloads.All() {
			r, err := Simulate(c, g, bs, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			w, _ := c.RuntimePower(r.Activity)
			if w <= 0 || w >= c.TDPW() {
				t.Errorf("%s bs=%d: runtime power %.1fW outside (0, TDP=%.1fW)",
					g.Name, bs, w, c.TDPW())
			}
		}
	}
}

// TestLPDDROffChipBandwidth checks that an LPDDR-only chip (the edge
// study's shape) is bounded by its DRAM port like a DDR port of the same
// bandwidth, and that its runtime power reports the port.
func TestLPDDROffChipBandwidth(t *testing.T) {
	build := func(kind periph.Kind, gbps float64) *chip.Chip {
		t.Helper()
		c, err := chip.Build(chip.Config{
			Name: "edge", TechNM: 28, ClockHz: 700e6, Tx: 1, Ty: 2,
			Core: chip.CoreConfig{
				NumTUs: 2, TURows: 32, TUCols: 32, TUDataType: maclib.Int8, HasSU: true,
				Mem: []chip.MemSegment{{Name: "spad", CapacityBytes: 1 << 20}},
			},
			NoCBisectionGBps: 64,
			OffChip:          []chip.OffChipPort{{Kind: kind, GBps: gbps}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	sim := func(c *chip.Chip) *Result {
		t.Helper()
		r, err := Simulate(c, workloads.MobileNetV1(), 1, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	lp := build(periph.LPDDRPort, 4)
	if got := lp.OffChipGBps(); got != 4 {
		t.Errorf("off-chip bandwidth of a 4 GB/s LPDDR chip = %v GB/s", got)
	}
	r := sim(lp)
	if ddr := sim(build(periph.DDRPort, 4)); ddr.Cycles != r.Cycles {
		t.Errorf("LPDDR chip takes %v cycles, DDR chip of the same bandwidth %v", r.Cycles, ddr.Cycles)
	}
	if fast := sim(build(periph.LPDDRPort, 1e6)); !(r.Cycles > fast.Cycles) {
		t.Errorf("4 GB/s LPDDR chip takes %v cycles, no fewer than a 1 PB/s one (%v): its bandwidth is ignored", r.Cycles, fast.Cycles)
	}
	lpddrW := func(a chip.Activity) float64 {
		_, bd := lp.RuntimePower(a)
		var names []string
		for _, ch := range bd.Children {
			names = append(names, ch.Name)
		}
		if !strings.Contains(strings.Join(names, " "), "noc lpddr misc") {
			t.Fatalf("runtime breakdown children %v have no lpddr entry", names)
		}
		return bd.Children[len(bd.Children)-2].PowerW
	}
	if busy, idle := lpddrW(r.Activity), lpddrW(chip.Activity{}); !(busy > idle) {
		t.Errorf("lpddr runtime power %v W under traffic, %v W idle: traffic is not charged", busy, idle)
	}
}

func TestLayersCSVAndSummary(t *testing.T) {
	c := dcPoint(t, 64, 2, 2, 4)
	r, err := Simulate(c, workloads.ResNet50(), 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	csv := r.LayersCSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != len(r.Layers)+1 {
		t.Fatalf("CSV rows %d, want %d", len(lines), len(r.Layers)+1)
	}
	if !strings.HasPrefix(lines[0], "layer,kind,mapping") {
		t.Errorf("CSV header: %q", lines[0])
	}
	if !strings.Contains(csv, "conv1") {
		t.Errorf("CSV missing layers")
	}
	for _, want := range []string{"batch=2", "fps=", "util="} {
		if !strings.Contains(r.Summary(), want) {
			t.Errorf("summary missing %q: %s", want, r.Summary())
		}
	}
}

// Layer names containing CSV metacharacters must round-trip: the writer
// quotes per RFC 4180 instead of corrupting columns.
func TestLayersCSVEscaping(t *testing.T) {
	r := &Result{Layers: []LayerStat{{
		Name:    `branch2a,3x3 "fused"`,
		Kind:    graph.Conv2D,
		Mapping: "n-split",
		Cycles:  1234,
	}}}
	rd := csv.NewReader(strings.NewReader(r.LayersCSV()))
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("records: got %d, want header + 1 row", len(recs))
	}
	if got := len(recs[0]); got != len(layersCSVHeader) {
		t.Errorf("header width %d, want %d", got, len(layersCSVHeader))
	}
	if recs[1][0] != `branch2a,3x3 "fused"` {
		t.Errorf("layer name corrupted: %q", recs[1][0])
	}
	if recs[1][3] != "1234" {
		t.Errorf("cycles column: %q", recs[1][3])
	}
	if LayersCSVFormatVersion < 2 {
		t.Errorf("format version must be >= 2 after the encoding/csv migration")
	}
}

func TestActivityTrace(t *testing.T) {
	c := dcPoint(t, 64, 2, 2, 4)
	r, err := Simulate(c, workloads.ResNet50(), 4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	trace := r.ActivityTrace(c)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	res, err := c.RuntimeTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	// The trace spans the simulated time.
	if res.TotalSec < r.TimeSec*0.95 || res.TotalSec > r.TimeSec*1.05 {
		t.Errorf("trace time %.4fs vs simulated %.4fs", res.TotalSec, r.TimeSec)
	}
	// The time-weighted trace average matches the single-shot runtime
	// power within 35% (the single shot uses workload-average rates; the
	// trace resolves per-layer phases).
	single, _ := c.RuntimePower(r.Activity)
	if res.AvgPowerW < single*0.65 || res.AvgPowerW > single*1.35 {
		t.Errorf("trace average %.1fW vs single-shot %.1fW", res.AvgPowerW, single)
	}
	// There must be real phase variation (conv1 vs late layers).
	if res.PeakPowerW < res.AvgPowerW*1.05 {
		t.Errorf("no phase variation: peak %.1fW avg %.1fW", res.PeakPowerW, res.AvgPowerW)
	}
	if res.PeakPowerW >= c.TDPW()*1.2 {
		t.Errorf("trace peak %.1fW far above TDP %.1fW", res.PeakPowerW, c.TDPW())
	}
}
