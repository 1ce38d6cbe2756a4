package neurometer

// The benchmark harness regenerates every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment end to end
// and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. The first iteration of each benchmark
// logs the regenerated rows (visible with -v), and EXPERIMENTS.md records
// the paper-vs-measured comparison.

import (
	"context"
	"fmt"
	"testing"

	"neurometer/internal/chip"
	"neurometer/internal/dse"
	"neurometer/internal/perfsim"
	"neurometer/internal/refchips"
	"neurometer/internal/sparse"
	"neurometer/internal/workloads"
)

// BenchmarkFig3TPUv1Validation regenerates the TPU-v1 validation of Fig. 3:
// chip-level area and TDP against the published numbers plus the component
// share breakdown.
func BenchmarkFig3TPUv1Validation(b *testing.B) {
	var rep refchips.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = refchips.ValidateTPUv1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.ModeledAreaMM2, "area-mm2")
	b.ReportMetric(rep.ModeledTDPW, "tdp-W")
	b.ReportMetric(rep.AreaErr()*100, "area-err-%")
	b.ReportMetric(rep.TDPErr()*100, "tdp-err-%")
	b.Logf("\n%s", rep)
}

// BenchmarkFig4TPUv2Validation regenerates the TPU-v2 area validation of
// Fig. 4 including the automatic 2R1W VMem port search.
func BenchmarkFig4TPUv2Validation(b *testing.B) {
	var rep refchips.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = refchips.ValidateTPUv2()
		if err != nil {
			b.Fatal(err)
		}
	}
	r, w, err := refchips.VMemPorts()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.ModeledAreaMM2, "area-mm2")
	b.ReportMetric(rep.AreaErr()*100, "area-err-%")
	b.ReportMetric(float64(r), "vmem-read-ports")
	b.ReportMetric(float64(w), "vmem-write-ports")
	b.Logf("\n%s", rep)
}

// BenchmarkFig5EyerissValidation regenerates the Eyeriss validation of
// Fig. 5: PE/chip area plus the AlexNet conv1/conv5 runtime power.
func BenchmarkFig5EyerissValidation(b *testing.B) {
	var rep refchips.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = refchips.ValidateEyeriss()
		if err != nil {
			b.Fatal(err)
		}
	}
	pe, err := refchips.EyerissPEAreaMM2()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.ModeledAreaMM2, "area-mm2")
	b.ReportMetric(pe*1000, "pe-area-um2/1000")
	for _, row := range rep.PowerRows {
		b.ReportMetric(row.ModeledPct, row.Component+"-mW")
	}
	b.Logf("\n%s", rep)
}

// BenchmarkTable2Workloads regenerates Table II: the workload
// characteristics (MACs, params, peak transient data) of the three
// datacenter CNNs from their layer tables.
func BenchmarkTable2Workloads(b *testing.B) {
	var macs, params int64
	for i := 0; i < b.N; i++ {
		macs, params = 0, 0
		for _, g := range workloads.All() {
			macs += g.MACs()
			params += g.Params()
		}
	}
	for _, g := range workloads.All() {
		b.Logf("%-10s MACs=%.2fG params=%.1fM peakData=%.2fMB",
			g.Name, float64(g.MACs())/1e9, float64(g.Params())/1e6,
			float64(g.PeakDataBytes())/1e6)
	}
	b.ReportMetric(float64(macs)/1e9, "total-GMACs")
	b.ReportMetric(float64(params)/1e6, "total-Mparams")
}

// BenchmarkFig7SoftwareOptimization regenerates Fig. 7: throughput before
// and after the TF-Sim-style graph optimizations across batch sizes.
func BenchmarkFig7SoftwareOptimization(b *testing.B) {
	cs := dse.TableI()
	var rows []dse.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = dse.Fig7(cs, dse.DefaultModels(), []int{1, 16, 256})
		if err != nil {
			b.Fatal(err)
		}
	}
	var worst, best = 1e9, 0.0
	for _, r := range rows {
		g := r.Gain()
		if g < worst {
			worst = g
		}
		if g > best {
			best = g
		}
		b.Logf("%-10s bs=%-4d before=%8.1ffps after=%8.1ffps gain=%.2fx",
			r.Model, r.Batch, r.FPSBefore, r.FPSAfter, g)
	}
	b.ReportMetric(worst, "min-gain-x")
	b.ReportMetric(best, "max-gain-x")
}

// BenchmarkFig8AreaTDP regenerates Fig. 8: the chip-level sweep with area
// and TDP breakdowns and peak efficiencies over the Table I design space.
func BenchmarkFig8AreaTDP(b *testing.B) {
	cs := dse.TableI()
	var rows []dse.Fig8Row
	for i := 0; i < b.N; i++ {
		cands := dse.Frontier(dse.EnumerateCtx(context.Background(), cs), cs.TOPSCap)
		rows = dse.Fig8(cands)
	}
	var bestTCO dse.Fig8Row
	for _, r := range rows {
		if r.PeakTOPS > 91 && r.PeakTOPSPerTCO > bestTCO.PeakTOPSPerTCO {
			bestTCO = r
		}
	}
	b.ReportMetric(float64(len(rows)), "design-points")
	b.ReportMetric(bestTCO.PeakTOPSPerTCO*1e3, "best-92T-TCOx1e3")
	b.Logf("92-TOPS peak-TCO optimum: %s (paper: (128,4,1,1))", bestTCO.Point)
	for _, r := range rows[:min(8, len(rows))] {
		b.Logf("%-14s peak=%6.2fT area=%6.1fmm2 tdp=%6.1fW mem=%5.1fmm2",
			r.Point, r.PeakTOPS, r.AreaMM2, r.TDPW,
			r.AreaBreakdown.Find("mem").AreaMM2)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkFig9BatchSweep regenerates Fig. 9: throughput/latency vs batch
// size on (64,2,2,4) and the 10ms latency-limited batch sizes.
func BenchmarkFig9BatchSweep(b *testing.B) {
	cs := dse.TableI()
	var limits map[string]int
	for i := 0; i < b.N; i++ {
		var err error
		_, limits, err = dse.Fig9(cs, dse.DefaultModels(), []int{1, 4, 16, 64, 256})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(limits["resnet"]), "resnet-slo-batch")
	b.ReportMetric(float64(limits["nasnet"]), "nasnet-slo-batch")
	b.ReportMetric(float64(limits["inception"]), "inception-slo-batch")
	b.Logf("10ms batches: resnet=%d nasnet=%d inception=%d (paper: 16/4/32)",
		limits["resnet"], limits["nasnet"], limits["inception"])
}

// BenchmarkFig10RuntimeDSE regenerates Fig. 10: the runtime performance and
// efficiency study across the design space at the three batch regimes.
func BenchmarkFig10RuntimeDSE(b *testing.B) {
	cs := dse.TableI()
	cands := dse.SecondRound(dse.Frontier(dse.EnumerateCtx(context.Background(), cs), cs.TOPSCap), cs.TOPSCap)
	var out map[string][]dse.RuntimeRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = dse.Fig10Hardened(context.Background(), cands, dse.DefaultModels(), dse.Hardening{}, "")
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, regime := range []string{"a-small", "b-medium", "c-large"} {
		rows := out[regime]
		thr, _ := dse.Winner(rows, dse.ByAchievedTOPS)
		util, _ := dse.Winner(rows, dse.ByUtilization)
		weff, _ := dse.Winner(rows, dse.ByTOPSPerWatt)
		ceff, _ := dse.Winner(rows, dse.ByTOPSPerTCO)
		b.Logf("Fig10(%s): thr=%s util=%s tops/w=%s tops/tco=%s",
			regime, thr.Point, util.Point, weff.Point, ceff.Point)
	}
	// The §III-B.2 headline tradeoff at batch 1.
	var eff, thr dse.RuntimeRow
	for _, r := range out["a-small"] {
		if r.Point == (dse.Point{X: 64, N: 4, Tx: 1, Ty: 2}) {
			eff = r
		}
		if r.Point == (dse.Point{X: 64, N: 2, Tx: 2, Ty: 4}) {
			thr = r
		}
	}
	if thr.AchievedTOPS > 0 {
		b.ReportMetric(eff.AchievedTOPS/thr.AchievedTOPS, "ach-ratio(paper-0.84)")
		b.ReportMetric(eff.TOPSPerTCO/thr.TOPSPerTCO, "tco-gain-x(paper-2.1)")
		b.ReportMetric(eff.TOPSPerWatt/thr.TOPSPerWatt, "w-gain-x(paper-1.3)")
	}
}

// BenchmarkRuntimeStudyWorkers compares the serial and parallel sweep
// paths on the Fig. 10 second-round candidate set at the fixed batch-8
// regime. Output is byte-identical across worker counts (pinned by the
// internal/dse parallel tests); only wall clock differs. The pool only
// helps when GOMAXPROCS > 1 — on a single-core host run with -cpu 4 (or
// higher) to see the speedup.
func BenchmarkRuntimeStudyWorkers(b *testing.B) {
	cs := dse.TableI()
	cands := dse.SecondRound(dse.Frontier(dse.EnumerateCtx(context.Background(), cs), cs.TOPSCap), cs.TOPSCap)
	models := dse.DefaultModels()
	spec := dse.BatchSpec{Fixed: 8}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := dse.RuntimeStudyHardened(context.Background(), cands, models,
					spec, perfsim.DefaultOptions(), dse.Hardening{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11SparsityGain regenerates Fig. 11: the sparse-over-dense
// energy-efficiency gains on TU- and RT-based architectures.
func BenchmarkFig11SparsityGain(b *testing.B) {
	w := sparse.DefaultWorkload()
	var out map[sparse.Arch][]sparse.Result
	for i := 0; i < b.N; i++ {
		var err error
		out, err = sparse.Sweep(w, sparse.DefaultSparsities(), 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, a := range []sparse.Arch{sparse.TU32, sparse.TU8, sparse.RT1024, sparse.RT64} {
		rows := out[a]
		b.Logf("%-7s gain@0.5=%.2fx gain@0.9=%.2fx gain@0.99=%.2fx beta@0.9=%.2f",
			a, rows[2].Gain, rows[5].Gain, rows[7].Gain, rows[5].Beta)
	}
	b.ReportMetric(out[sparse.TU8][5].Gain, "tu8-gain@0.9")
	b.ReportMetric(out[sparse.TU32][5].Gain, "tu32-gain@0.9")
	b.ReportMetric(out[sparse.TU8][5].Beta, "beta@0.9")
}

// BenchmarkAblations regenerates the design-choice ablation studies called
// out in DESIGN.md: NoC topology, memory cell, inner-TU interconnect, VReg
// port sharing, dataflow, and operand data type.
func BenchmarkAblations(b *testing.B) {
	cs := dse.TableI()
	var report string
	for i := 0; i < b.N; i++ {
		var err error
		report, err = dse.AllAblations(cs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", report)
}

// BenchmarkChipBuild measures the framework's own modeling speed — the
// "fast" in fast-and-accurate: one full, cold chip evaluation per
// iteration. The build memos are emptied first, or every iteration after
// the first would score its memory arrays from the array memo.
func BenchmarkChipBuild(b *testing.B) {
	cs := dse.TableI()
	cfg := cs.Config(dse.Point{X: 64, N: 2, Tx: 2, Ty: 4})
	for i := 0; i < b.N; i++ {
		chip.ResetBuildCache()
		if _, err := Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIEnumerate measures one cold Table I enumeration per
// iteration: the build memo is emptied first, so every iteration builds
// the 60 chips that survive the peak-TOPS prune, the enumeration half of a
// cold dse -fig 10.
func BenchmarkTableIEnumerate(b *testing.B) {
	cs := dse.TableI()
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		chip.ResetBuildCache()
		n = len(dse.EnumerateCtx(context.Background(), cs))
	}
	b.ReportMetric(float64(n), "candidates")
}

// BenchmarkPerfSim measures one ResNet-50 performance simulation.
func BenchmarkPerfSim(b *testing.B) {
	cs := dse.TableI()
	c, err := Build(cs.Config(dse.Point{X: 64, N: 2, Tx: 2, Ty: 4}))
	if err != nil {
		b.Fatal(err)
	}
	g := workloads.ResNet50()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perfsim.Simulate(c, g, 16, perfsim.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEdgeStudy runs the edge-scenario sweep (the cloud-to-edge range
// the paper's introduction motivates): mobile budgets, LPDDR bandwidth,
// single-image ResNet-50 inference.
func BenchmarkEdgeStudy(b *testing.B) {
	var rows []dse.EdgeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = dse.EdgeStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	best := rows[0]
	for _, r := range rows {
		if r.FPSPerWatt > best.FPSPerWatt {
			best = r
		}
	}
	b.ReportMetric(float64(len(rows)), "designs")
	b.ReportMetric(best.FPSPerWatt, "best-fps-per-watt")
	b.Logf("edge fps/W optimum: %s (%.1f fps at %.2f W)", best.Point, best.FPS, best.PowerW)
}
