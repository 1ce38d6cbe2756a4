package dse_test

import (
	"context"
	"fmt"

	"neurometer/internal/dse"
	"neurometer/internal/graph"
	"neurometer/internal/perfsim"
	"neurometer/internal/workloads"
)

// Hardening.Workers bounds a runtime study's goroutine pool; each worker
// claims the next candidate index in turn. The knob never changes output —
// results are collected by candidate index, so any worker count emits the
// same bytes as a serial run.
func ExampleHardening() {
	cs := dse.TableI()
	cs.XChoices, cs.NChoices, cs.MaxTiles = []int{8, 64}, []int{2, 4}, 32
	cands := dse.SecondRound(dse.EnumerateCtx(context.Background(), cs), cs.TOPSCap)
	g, err := workloads.ByName("alexnet")
	if err != nil {
		fmt.Println("workload:", err)
		return
	}
	models := []*graph.Graph{g}
	spec := dse.BatchSpec{Fixed: 8}
	opt := perfsim.DefaultOptions()

	serial, err := dse.RuntimeStudyHardened(context.Background(), cands, models, spec, opt,
		dse.Hardening{Workers: 1})
	if err != nil {
		fmt.Println("study:", err)
		return
	}
	parallel, err := dse.RuntimeStudyHardened(context.Background(), cands, models, spec, opt,
		dse.Hardening{Workers: 8})
	if err != nil {
		fmt.Println("study:", err)
		return
	}
	fmt.Println("rows:", len(parallel) > 0)
	fmt.Println("byte-identical to serial:",
		dse.RuntimeRowsCSV(parallel) == dse.RuntimeRowsCSV(serial))
	// Output:
	// rows: true
	// byte-identical to serial: true
}

// Winner ranks a runtime study's rows by one of the Fig. 10 metrics. The
// paper's headline result falls out of exactly this call: the brawny
// (64,2,2,4) point wins raw throughput while a wimpier configuration wins
// on efficiency.
func ExampleWinner() {
	rows := []dse.RuntimeRow{
		{Point: dse.Point{X: 64, N: 2, Tx: 2, Ty: 4}, AchievedTOPS: 61.2, TOPSPerWatt: 0.31},
		{Point: dse.Point{X: 8, N: 4, Tx: 8, Ty: 8}, AchievedTOPS: 48.9, TOPSPerWatt: 0.42},
	}
	byTOPS, _ := dse.Winner(rows, dse.ByAchievedTOPS)
	byEff, _ := dse.Winner(rows, dse.ByTOPSPerWatt)
	fmt.Println("best throughput:", byTOPS.Point)
	fmt.Println("best TOPS/W:   ", byEff.Point)
	// Output:
	// best throughput: (64,2,2,4)
	// best TOPS/W:    (8,4,8,8)
}

// RuntimeRowsCSV is the plotting interchange format and the byte-identity
// witness for the parallel sweep engine: serial, parallel and store-backed
// runs of one study emit the same bytes.
func ExampleRuntimeRowsCSV() {
	rows := []dse.RuntimeRow{{
		Point:        dse.Point{X: 64, N: 2, Tx: 2, Ty: 4},
		PeakTOPS:     91.75,
		AchievedTOPS: 60.5,
		Utilization:  0.66,
		PowerW:       198.4,
		TOPSPerWatt:  0.305,
		TOPSPerTCO:   0.00042,
		Batches:      []int{8, 8, 8},
	}}
	fmt.Print(dse.RuntimeRowsCSV(rows))
	// Output:
	// point,x,n,tx,ty,peak_tops,achieved_tops,utilization,power_w,tops_per_watt,tops_per_tco,batches
	// "(64,2,2,4)",64,2,2,4,91.75,60.5,0.66,198.4,0.305,0.00042,8;8;8
}
