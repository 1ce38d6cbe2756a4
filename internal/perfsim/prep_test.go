package perfsim

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"neurometer/internal/graph"
	"neurometer/internal/workloads"
)

// TestPrepareClasses pins the shape-class counts of the Fig. 9/10 models
// and of manyShapes (more classes than the stack scratch holds), and the
// class contract: classes are numbered in order of first appearance, every
// layer's layerVals equals its class's row, and no two classes share a row.
func TestPrepareClasses(t *testing.T) {
	if stackClasses >= 83 {
		t.Fatalf("manyShapes' 83 classes fit the %d-class stack scratch", stackClasses)
	}
	for _, tc := range []struct {
		g               *graph.Graph
		layers, classes int
	}{
		{workloads.ResNet50(), 72, 30},
		{workloads.InceptionV3(), 120, 54},
		{workloads.NasNetALarge(), 533, 54},
		{manyShapes(), 480, 83},
	} {
		g := tc.g
		p, err := Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != g.Name || len(p.class) != tc.layers || len(p.vals) != tc.classes {
			t.Errorf("%s: %q with %d layers in %d classes, want %d in %d",
				g.Name, p.Name(), len(p.class), len(p.vals), tc.layers, tc.classes)
		}
		reached := int32(0)
		for i, k := range p.class {
			if k < 0 || k > reached || int(k) >= len(p.vals) {
				t.Fatalf("%s layer %d: class %d, but only %d classes appear before it", g.Name, i, k, reached)
			}
			if k == reached {
				reached++
			}
			if lv := prepareLayer(&g.Layers[i]); lv != p.vals[k] {
				t.Errorf("%s layer %d (%s): layerVals differ from class %d's row", g.Name, i, g.Layers[i].Name, k)
			}
		}
		if int(reached) != len(p.vals) {
			t.Errorf("%s: %d classes reached, %d rows stored", g.Name, reached, len(p.vals))
		}
		seen := map[layerVals]int{}
		for k, lv := range p.vals {
			if prev, ok := seen[lv]; ok {
				t.Errorf("%s: classes %d and %d share one row", g.Name, prev, k)
			}
			seen[lv] = k
		}
	}
}

// manyShapes is a synthetic graph with more shape classes than a
// simulation keeps on its stack, so its scratch comes from classPool: 80
// distinct convolutions, each twice, with depthwise layers of two strides
// and eltwise layers in between (83 classes).
func manyShapes() *graph.Graph {
	g := &graph.Graph{Name: "many-shapes"}
	for i := 0; i < 160; i++ {
		c := 8 * (i%80 + 1)
		g.Layers = append(g.Layers,
			graph.Layer{Name: fmt.Sprintf("conv%d", i), Kind: graph.Conv2D, InH: 14, InW: 14, InC: c, OutC: 64, KH: 3, KW: 3, Stride: 1, SamePad: true},
			graph.Layer{Name: fmt.Sprintf("dw%d", i), Kind: graph.DepthwiseConv2D, InH: 14, InW: 14, InC: 64, KH: 3, KW: 3, Stride: 1 + i%2, SamePad: true},
			graph.Layer{Name: fmt.Sprintf("add%d", i), Kind: graph.EltwiseAdd, InH: 14, InW: 14, InC: 64})
	}
	return g
}

// TestSimulateIntoSharedPrepared runs SimulateInto on one shared Prepared
// from several goroutines over chips and batches whose class values all
// differ, and checks every result against a serial reference: per-class
// scratch, on the stack or from the pool, must never be shared between two
// simulations in flight, and the shared Prepared is only read. Run it
// under -race.
func TestSimulateIntoSharedPrepared(t *testing.T) {
	chips := batchChips(t, 8)
	for _, g := range []*graph.Graph{workloads.NasNetALarge(), manyShapes()} {
		p, err := Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		opt := DefaultOptions()
		batches := []int{1, 16, 256}
		want := make([]headline, len(chips)*len(batches))
		for i := range want {
			var r Result
			if err := p.SimulateInto(ctx, chips[i%len(chips)], batches[i/len(chips)], opt, &r); err != nil {
				t.Fatal(err)
			}
			want[i] = stripLayers(r)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var r Result
				for round := 0; round < 3; round++ {
					for j := range want {
						i := (j + w*5) % len(want) // each goroutine starts elsewhere
						if err := p.SimulateInto(ctx, chips[i%len(chips)], batches[i/len(chips)], opt, &r); err != nil {
							t.Error(err)
							return
						}
						if stripLayers(r) != want[i] {
							t.Errorf("%s, goroutine %d: case %d diverges from the serial reference", g.Name, w, i)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
