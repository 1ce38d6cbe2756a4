package dse

import (
	"context"
	"strings"
	"testing"

	"neurometer/internal/chip"
	"neurometer/internal/obs"
	"neurometer/internal/perfsim"
)

// sweep is computed once; the full enumeration builds ~100 chips.
var sweep = EnumerateCtx(context.Background(), TableI())

func findCand(t *testing.T, p Point) Candidate {
	t.Helper()
	for _, c := range sweep {
		if c.Point == p {
			return c
		}
	}
	t.Fatalf("point %s not in feasible set", p)
	return Candidate{}
}

func TestTableIEnumerationCounts(t *testing.T) {
	// The construction work of one cold Table I enumeration, the counts
	// perfbench's sweep-cold reports. The memory-array optimizer's search
	// space, its memo or the candidate pruning moves them: 240 array
	// requests score 338 distinct bank/port organizations.
	chip.ResetBuildCache()
	checkColdEnumerationCounts(t)
}

func checkColdEnumerationCounts(t *testing.T) {
	t.Helper()
	before := obs.Default().Snapshot().Counters
	EnumerateCtx(context.Background(), TableI())
	after := obs.Default().Snapshot().Counters
	for name, want := range map[string]int64{
		"chip.builds":     60,
		"memarray.builds": 240,
		"memarray.evals":  338,
	} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s = %d per enumeration, want %d", name, got, want)
		}
	}
}

func TestResetBuildCacheEmptiesArrayMemo(t *testing.T) {
	// A warm enumeration builds nothing. Emptying the chip memo must empty
	// the memory-array memo under it too, or the next enumeration would
	// rebuild its chips from warm arrays and score no organization.
	EnumerateCtx(context.Background(), TableI())
	chip.ResetBuildCache()
	checkColdEnumerationCounts(t)
}

func TestEnumerateTracesEachBuild(t *testing.T) {
	// One chip.build span per built point, under dse.enumerate, named by
	// its point: enumerate's own time is the pruning between them. Two
	// workers, so the spans are recorded from both pool goroutines.
	rt := obs.NewRequestTracer()
	ctx, root := rt.StartRoot(context.Background(), "test")
	cands := EnumerateParallel(ctx, TableI(), 2)
	root.End()
	points := map[string]bool{}
	for _, s := range rt.WireSpans() {
		if s.Name != "chip.build" {
			continue
		}
		if s.Path != "test/dse.enumerate/chip.build" {
			t.Errorf("chip.build span at %q, want it under dse.enumerate", s.Path)
		}
		for _, a := range s.Attrs {
			if a.K == "point" {
				points[a.V.(string)] = true
			}
		}
	}
	// Every Table I point that passes the peak-TOPS prune builds.
	if len(points) != 60 || len(cands) != 60 {
		t.Fatalf("%d chip.build spans with distinct points for %d candidates, want 60 each", len(points), len(cands))
	}
	for _, c := range cands {
		if !points[c.Point.String()] {
			t.Errorf("candidate %s has no chip.build span", c.Point)
		}
	}
}

func TestFig10SimulationCounts(t *testing.T) {
	// The simulation work of one cold Fig. 10 study over the Table I
	// frontier after the second-round prune, the counts perfbench's
	// study-warm reports. Each (candidate, model, batch) cell is simulated
	// once: regime b's latency ladder reuses regime a's batch 1, and no
	// ladder at Table I reaches regime c's batch 256. The counts and the
	// output are the same at any pool size, so no cell is simulated twice
	// or skipped. A simulation evaluates the closed forms once per shape
	// class of the model, so layer_evals counts classes, not layers.
	cs := TableI()
	cands := SecondRound(Frontier(sweep, cs.TOPSCap), cs.TOPSCap)
	if len(cands) != 47 {
		t.Fatalf("Fig. 10 candidate set has %d points, want 47", len(cands))
	}
	for _, h := range []Hardening{{Workers: 1}, {Workers: 2}} {
		before := obs.Default().Snapshot().Counters
		out, err := Fig10Hardened(context.Background(), cands, DefaultModels(), h, "")
		if err != nil {
			t.Fatal(err)
		}
		after := obs.Default().Snapshot().Counters
		for name, want := range map[string]int64{
			"perfsim.simulations":      801,
			"perfsim.layers_simulated": 154533,
			"perfsim.layer_evals":      35910,
		} {
			if got := after[name] - before[name]; got != want {
				t.Errorf("workers=%d: %s = %d per study, want %d", h.Workers, name, got, want)
			}
		}
		if got := fig10OutputDigest(out); got != fig10Digest {
			t.Errorf("workers=%d: Fig. 10 digest %s, want %s", h.Workers, got, fig10Digest)
		}
	}
}

func TestEnumerateProducesFeasibleSet(t *testing.T) {
	cs := TableI()
	if len(sweep) < 20 {
		t.Fatalf("feasible set suspiciously small: %d", len(sweep))
	}
	for _, c := range sweep {
		if c.PeakTOPS > cs.TOPSCap*1.01 {
			t.Errorf("%s exceeds the TOPS cap: %.1f", c.Point, c.PeakTOPS)
		}
		if c.AreaMM2 > cs.AreaBudgetMM2 {
			t.Errorf("%s exceeds the area budget: %.1f", c.Point, c.AreaMM2)
		}
		if c.TDPW > cs.PowerBudgetW {
			t.Errorf("%s exceeds the power budget: %.1f", c.Point, c.TDPW)
		}
	}
}

func TestNamedPaperPointsFeasible(t *testing.T) {
	for _, p := range []Point{
		{256, 1, 1, 1}, {128, 4, 1, 1}, {64, 2, 2, 4}, {64, 4, 1, 2}, {8, 4, 4, 8},
	} {
		findCand(t, p)
	}
}

func TestFig8MemoryDominatesArea(t *testing.T) {
	// §III-B.1 first insight: on-chip memory takes the largest die area
	// among architectural components for datacenter inference chips.
	for _, c := range Frontier(sweep, TableI().TOPSCap) {
		bd := c.Chip.AreaBreakdown()
		cores := bd.Find("cores")
		mem := cores.Child("mem").AreaMM2
		for _, name := range []string{"tu", "vu", "su", "cdb"} {
			if child := cores.Child(name); child != nil && child.AreaMM2 > mem {
				t.Errorf("%s: %s (%.1fmm2) exceeds mem (%.1fmm2)", c.Point, name, child.AreaMM2, mem)
			}
		}
	}
}

func TestFig8WimpierNeedsMoreAreaAtSamePeak(t *testing.T) {
	// At the 92-TOPS target, the wimpier the design the larger the die.
	seq := []Point{{64, 2, 2, 4}, {32, 4, 4, 4}, {16, 4, 8, 8}}
	prev := 0.0
	for _, p := range seq {
		c := findCand(t, p)
		if c.AreaMM2 <= prev {
			t.Errorf("%s should be bigger than the brawnier twin: %.1f <= %.1f",
				p, c.AreaMM2, prev)
		}
		prev = c.AreaMM2
	}
}

func TestFig8PeakEfficiencyFavorsBrawny(t *testing.T) {
	// Peak TOPS/W and TOPS/TCO degrade with wimpier designs at equal peak.
	brawny := findCand(t, Point{64, 2, 2, 4})
	wimpy := findCand(t, Point{16, 4, 8, 8})
	if wimpy.PeakTOPSPerW >= brawny.PeakTOPSPerW {
		t.Errorf("wimpy peak TOPS/W should trail: %.3f vs %.3f",
			wimpy.PeakTOPSPerW, brawny.PeakTOPSPerW)
	}
	if wimpy.PeakTOPSPerTCO >= brawny.PeakTOPSPerTCO {
		t.Errorf("wimpy peak TOPS/TCO should trail")
	}
	// (128,4,1,1) is the best TOPS/TCO among the 92-TOPS designs (Fig 8b).
	var best Candidate
	for _, c := range sweep {
		if c.PeakTOPS > 91 && c.PeakTOPSPerTCO > best.PeakTOPSPerTCO {
			best = c
		}
	}
	if best.Point != (Point{128, 4, 1, 1}) {
		t.Errorf("92-TOPS TCO optimum: got %s, paper (128,4,1,1)", best.Point)
	}
}

func TestFrontierKeepsNamedPoints(t *testing.T) {
	fr := Frontier(sweep, TableI().TOPSCap)
	want := map[Point]bool{
		{64, 2, 2, 4}: false, {64, 4, 1, 2}: false, {8, 4, 4, 8}: false,
		{128, 4, 1, 1}: false, {256, 1, 1, 1}: false,
	}
	for _, c := range fr {
		if _, ok := want[c.Point]; ok {
			want[c.Point] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("frontier must keep %s", p)
		}
	}
	if len(fr) > len(sweep) {
		t.Errorf("frontier must not grow the set: %d vs %d", len(fr), len(sweep))
	}
}

func TestSecondRoundPrunesLowPerf(t *testing.T) {
	pruned := SecondRound(sweep, TableI().TOPSCap)
	if len(pruned) >= len(sweep) {
		t.Errorf("second round should drop the 4x4-class points")
	}
	for _, c := range pruned {
		if c.Point.X == 4 {
			t.Errorf("4x4 designs should be pruned (paper: <1/12 peak): %s", c.Point)
		}
	}
}

func TestFig10SmallBatchClaims(t *testing.T) {
	// The §III-B.2 headline claims at batch 1, evaluated on the paper's
	// named points.
	points := []Point{
		{256, 1, 1, 1}, {128, 4, 1, 1}, {64, 2, 2, 4}, {64, 4, 1, 2},
		{32, 4, 2, 2}, {8, 4, 4, 8},
	}
	var cands []Candidate
	for _, p := range points {
		cands = append(cands, findCand(t, p))
	}
	rows, err := RuntimeStudyHardened(context.Background(), cands, DefaultModels(), BatchSpec{Fixed: 1}, perfsim.DefaultOptions(), Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(p Point) RuntimeRow {
		for _, r := range rows {
			if r.Point == p {
				return r
			}
		}
		t.Fatalf("row %s missing", p)
		return RuntimeRow{}
	}
	// Highest utilization among the named points: (8,4,4,8).
	util, err := Winner(rows, ByUtilization)
	if err != nil {
		t.Fatal(err)
	}
	if util.Point != (Point{8, 4, 4, 8}) {
		t.Errorf("utilization winner: got %s, paper (8,4,4,8)", util.Point)
	}
	// Highest throughput: the 8-core brawny design (64,2,2,4).
	thr, err := Winner(rows, ByAchievedTOPS)
	if err != nil {
		t.Fatal(err)
	}
	if thr.Point != (Point{64, 2, 2, 4}) {
		t.Errorf("throughput winner: got %s, paper (64,2,2,4)", thr.Point)
	}
	// The efficiency/throughput tradeoff: (64,4,1,2) sacrifices a modest
	// share of achieved TOPS for >1.8x TOPS/TCO.
	eff, thr2 := get(Point{64, 4, 1, 2}), get(Point{64, 2, 2, 4})
	if ratio := eff.AchievedTOPS / thr2.AchievedTOPS; ratio < 0.65 || ratio >= 1 {
		t.Errorf("achieved ratio %.2f out of band (paper ~0.84)", ratio)
	}
	if gain := eff.TOPSPerTCO / thr2.TOPSPerTCO; gain < 1.8 {
		t.Errorf("TOPS/TCO gain %.2fx, want >1.8x (paper 2.1x)", gain)
	}
	if gain := eff.TOPSPerWatt / thr2.TOPSPerWatt; gain < 1.0 {
		t.Errorf("TOPS/W gain %.2fx, want >1x (paper 1.3x)", gain)
	}
}

func TestFig10LargeBatchEnergyFavors32(t *testing.T) {
	// §III-B.2: at medium/large batch the energy-efficiency optimum drops
	// from 64x64 to 32x32.
	points := []Point{
		{64, 2, 2, 4}, {64, 4, 1, 2}, {32, 4, 4, 4}, {32, 2, 4, 8}, {16, 4, 8, 8},
	}
	var cands []Candidate
	for _, p := range points {
		cands = append(cands, findCand(t, p))
	}
	rows, err := RuntimeStudyHardened(context.Background(), cands, DefaultModels(), BatchSpec{Fixed: 256}, perfsim.DefaultOptions(), Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Winner(rows, ByTOPSPerWatt)
	if err != nil {
		t.Fatal(err)
	}
	if w.Point.X != 32 {
		t.Errorf("large-batch energy winner should be 32x32-based, got %s", w.Point)
	}
}

func TestFig9LatencyLimitedBatches(t *testing.T) {
	_, limits, err := Fig9(TableI(), DefaultModels(), []int{1, 16, 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		model string
		paper int
	}{
		{"resnet", 16}, {"nasnet", 4}, {"inception", 32},
	} {
		got := limits[tc.model]
		if got < tc.paper/2 || got > tc.paper*2 {
			t.Errorf("%s latency-limited batch %d vs paper %d", tc.model, got, tc.paper)
		}
	}
}

func TestFig7OptimizationGains(t *testing.T) {
	rows, err := Fig7(TableI(), DefaultModels(), []int{1, 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Gain() <= 1.0 {
			t.Errorf("%s bs=%d: optimizations must help (gain %.2f)", r.Model, r.Batch, r.Gain())
		}
	}
}

func TestBatchSpecString(t *testing.T) {
	if (BatchSpec{Fixed: 4}).String() != "bs=4" {
		t.Errorf("fixed spec string")
	}
	if (BatchSpec{LatencyBound: 0.01}).String() != "bs=latency<10ms" {
		t.Errorf("latency spec string: %s", BatchSpec{LatencyBound: 0.01})
	}
	if (Point{1, 2, 3, 4}).String() != "(1,2,3,4)" {
		t.Errorf("point string")
	}
}

func TestEdgeStudy(t *testing.T) {
	rows, err := EdgeStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("edge space too small: %d designs", len(rows))
	}
	cs := EdgeConstraints()
	for _, r := range rows {
		if r.AreaMM2 > cs.AreaBudgetMM2 || r.TDPW > cs.PowerBudgetW {
			t.Errorf("%s exceeds the edge budget: %.1fmm2 %.2fW", r.Point, r.AreaMM2, r.TDPW)
		}
		if r.LatencyMS <= 0 || r.FPS <= 0 || r.Utilization <= 0 {
			t.Errorf("%s: degenerate runtime", r.Point)
		}
	}
	// Edge inference at batch 1 on sub-TOPS chips is compute-starved, so
	// utilizations run far higher than the datacenter points'.
	var minUtil = 1.0
	for _, r := range rows {
		if r.Utilization < minUtil {
			minUtil = r.Utilization
		}
	}
	if minUtil < 0.5 {
		t.Errorf("edge utilizations should be high, min %.2f", minUtil)
	}
	// More peak always means lower latency within this space.
	best, worst := rows[0], rows[0]
	for _, r := range rows {
		if r.PeakTOPS > best.PeakTOPS {
			best = r
		}
		if r.PeakTOPS < worst.PeakTOPS {
			worst = r
		}
	}
	if best.LatencyMS >= worst.LatencyMS {
		t.Errorf("the biggest edge chip should be the fastest: %.1fms vs %.1fms",
			best.LatencyMS, worst.LatencyMS)
	}
}

func TestFormatRuntimeRows(t *testing.T) {
	rows := []RuntimeRow{{
		Point: Point{64, 2, 2, 4}, PeakTOPS: 91.75, AchievedTOPS: 20,
		Utilization: 0.22, PowerW: 35, TOPSPerWatt: 0.57, TOPSPerTCO: 1e-5,
	}}
	s := FormatRuntimeRows(rows)
	for _, want := range []string{"(64,2,2,4)", "91.75", "22.0%", "point"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted rows missing %q:\n%s", want, s)
		}
	}
}

func TestWinnerEmpty(t *testing.T) {
	if _, err := Winner(nil, ByAchievedTOPS); err == nil {
		t.Errorf("empty rows must fail")
	}
}

func TestFig8RowsCarryBreakdowns(t *testing.T) {
	cands := Frontier(sweep, TableI().TOPSCap)[:3]
	rows := Fig8(cands)
	for _, r := range rows {
		if r.AreaBreakdown == nil || r.AreaBreakdown.Find("mem") == nil {
			t.Errorf("%s: missing breakdown", r.Point)
		}
		if !r.AreaBreakdown.Consistent(1e-6) {
			t.Errorf("%s: inconsistent breakdown", r.Point)
		}
	}
}
