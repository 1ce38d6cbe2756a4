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
// LayerStat per layer; TestClassedMatchesOracle checks their values), and
// one Binding reused across batches 1 to 512 on a chip, then moved to
// another workload on the same chip and on to the next chip. Every path
// must also count the same layers walked and classes evaluated. Run it
// under -race.
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
	for _, opt := range []Options{DefaultOptions(), NoOptimizations(), {SpaceToDepth: true}} {
		for gi, g := range graphs {
			p, other := prepared[gi], prepared[(gi+1)%len(prepared)]
			wantLayers, wantEvals := int64(len(g.Layers)), int64(len(p.vals))
			for _, c := range chips {
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
					}
					for _, path := range paths {
						got, layers, evals := sim(path.run)
						if layers != wantLayers || evals != wantEvals {
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
			}
		}
	}
	if guard.Armed() {
		t.Fatal("a fault is still armed")
	}
}
