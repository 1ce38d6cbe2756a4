package perfsim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"neurometer/internal/guard"
	"neurometer/internal/workloads"
)

// TestSimulationPathsAgree pins every way a simulation can run against the
// others, bit for bit in every Result field: the tight walk (SimulateInto
// on a fresh Binding, no fault armed), the per-layer pass (a fault armed at
// an unrelated site, and a cancelable ctx), SimulateCtx's detail path (one
// LayerStat per layer; TestClassedMatchesOracle checks their values), one
// Binding reused across batches 1 to 512 on a chip, then moved to another
// workload on the same chip and on to the next chip, and one Ladder per
// chip: each batch a miss and then a memo hit, a non-power-of-two batch in
// its spare, and a miss after a Reset to another workload. Every path must
// also count the same layers walked and classes evaluated (a memo hit
// none). Run it under -race.
func TestSimulationPathsAgree(t *testing.T) {
	chips := batchChips(t, 5)
	bert, err := workloads.BERTBase()
	if err != nil {
		t.Fatal(err)
	}
	graphs := append(workloads.All(), workloads.AlexNet(), workloads.MobileNetV1(), bert, manyShapes())
	prepared := make([]*Prepared, len(graphs))
	for i, g := range graphs {
		if prepared[i], err = Prepare(g); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
	bg := context.Background()
	cctx, cancel := context.WithCancel(bg)
	defer cancel()

	// sim runs one path and returns its result and the layers and class
	// evaluations it counted.
	sim := func(run func(*Result) error) (Result, int64, int64) {
		t.Helper()
		layers, evals := mLayers.Value(), mLayerEvals.Value()
		var r Result
		if err := run(&r); err != nil {
			t.Fatal(err)
		}
		return r, mLayers.Value() - layers, mLayerEvals.Value() - evals
	}
	var b Binding
	var lad Ladder
	ladderSim := func(batch int) func(*Result) error {
		return func(r *Result) error {
			got, err := lad.Simulate(cctx, batch)
			if err == nil {
				*r = *got
			}
			return err
		}
	}
	for _, opt := range []Options{DefaultOptions(), NoOptimizations(), {SpaceToDepth: true}} {
		for gi, g := range graphs {
			p, other := prepared[gi], prepared[(gi+1)%len(prepared)]
			wantLayers, wantEvals := int64(len(g.Layers)), int64(len(p.vals))
			for _, c := range chips {
				lad.Reset(p, c, opt)
				for batch := 1; batch <= LatencyLimitedMaxBatch; batch *= 2 {
					where := fmt.Sprintf("%s on %s batch %d %+v", g.Name, c.Cfg.Name, batch, opt)
					fast, layers, evals := sim(func(r *Result) error { return new(Binding).SimulateInto(bg, p, c, batch, opt, r) })
					if layers != wantLayers || evals != wantEvals {
						t.Fatalf("%s: tight walk counted %d layers and %d evals, want %d and %d",
							where, layers, evals, wantLayers, wantEvals)
					}
					paths := []struct {
						name string
						run  func(*Result) error
					}{
						{"per-layer pass", func(r *Result) error {
							defer guard.Arm("chip.build", guard.Fault{Skip: 1 << 30})()
							return new(Binding).SimulateInto(cctx, p, c, batch, opt, r)
						}},
						{"detail", func(r *Result) error {
							d, err := SimulateCtx(cctx, c, g, batch, opt)
							if err == nil {
								*r = *d
							}
							return err
						}},
						{"bound", func(r *Result) error { return b.SimulateInto(cctx, p, c, batch, opt, r) }},
						{"ladder miss", ladderSim(batch)},
						{"ladder hit", ladderSim(batch)}, // answered from the memo
					}
					for _, path := range paths {
						got, layers, evals := sim(path.run)
						if hit := path.name == "ladder hit"; hit && (layers != 0 || evals != 0) {
							t.Fatalf("%s: %s counted %d layers and %d evals, want none", where, path.name, layers, evals)
						} else if !hit && (layers != wantLayers || evals != wantEvals) {
							t.Fatalf("%s: %s counted %d layers and %d evals, want %d and %d",
								where, path.name, layers, evals, wantLayers, wantEvals)
						}
						if path.name == "detail" {
							if len(got.Layers) != len(g.Layers) {
								t.Fatalf("%s: detail has %d LayerStats, want %d", where, len(got.Layers), len(g.Layers))
							}
							got.Layers = nil
						}
						if at, ok := bitsEqual(reflect.ValueOf(got), reflect.ValueOf(fast), "Result"); !ok {
							t.Fatalf("%s: %s diverges from the tight walk at %s", where, path.name, at)
						}
					}
				}
				// The Binding moves to another workload on the same chip,
				// then (next chip) to another chip and back to p.
				moved, _, _ := sim(func(r *Result) error { return b.SimulateInto(bg, other, c, 8, opt, r) })
				want, _, _ := sim(func(r *Result) error { return new(Binding).SimulateInto(bg, other, c, 8, opt, r) })
				if at, ok := bitsEqual(reflect.ValueOf(moved), reflect.ValueOf(want), "Result"); !ok {
					t.Fatalf("%s on %s: Binding moved from %s diverges at %s", other.name, c.Cfg.Name, g.Name, at)
				}
				// The Ladder's spare, then the Ladder reset to the other
				// workload: batch 8 must be simulated again, not served
				// from p's rung.
				spare, layers, _ := sim(ladderSim(3))
				fresh, _, _ := sim(func(r *Result) error { return new(Binding).SimulateInto(bg, p, c, 3, opt, r) })
				if at, ok := bitsEqual(reflect.ValueOf(spare), reflect.ValueOf(fresh), "Result"); !ok || layers != wantLayers {
					t.Fatalf("%s on %s: Ladder spare at batch 3 walked %d layers, diverges at %s", g.Name, c.Cfg.Name, layers, at)
				}
				lad.Reset(other, c, opt)
				reset, layers, _ := sim(ladderSim(8))
				if at, ok := bitsEqual(reflect.ValueOf(reset), reflect.ValueOf(want), "Result"); !ok || layers != int64(len(other.class)) {
					t.Fatalf("%s on %s: Ladder reset from %s walked %d layers, diverges at %s", other.name, c.Cfg.Name, g.Name, layers, at)
				}
			}
		}
	}
	if guard.Armed() {
		t.Fatal("a fault is still armed")
	}
}
