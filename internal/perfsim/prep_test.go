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
// class contract: classes are numbered in order of first appearance,
// first[k] is class k's first layer, every layer's layerVals equals its
// representative's, and no two classes share a key.
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
		if len(p.layers) != tc.layers || len(p.first) != tc.classes {
			t.Errorf("%s: %d layers in %d classes, want %d in %d",
				g.Name, len(p.layers), len(p.first), tc.layers, tc.classes)
		}
		seen := map[layerVals]int32{}
		for i := range p.layers {
			k := p.class[i]
			if k < 0 || int(k) >= len(p.first) {
				t.Fatalf("%s layer %d: class %d out of range", g.Name, i, k)
			}
			if rep := int(p.first[k]); rep > i || (rep < i && p.class[rep] != k) {
				t.Errorf("%s layer %d: class %d's first layer is %d", g.Name, i, k, rep)
			}
			if p.layers[i] != p.layers[p.first[k]] {
				t.Errorf("%s layer %d (%s): layerVals differ from class %d's representative %s",
					g.Name, i, g.Layers[i].Name, k, g.Layers[p.first[k]].Name)
			}
			if prev, ok := seen[p.layers[i]]; ok && prev != k {
				t.Errorf("%s layer %d: key of class %d also in class %d", g.Name, i, k, prev)
			}
			seen[p.layers[i]] = k
		}
		for k, rep := range p.first {
			if p.class[rep] != int32(k) || (k > 0 && rep <= p.first[k-1]) {
				t.Errorf("%s: class %d first appears at layer %d, out of order", g.Name, k, rep)
			}
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
