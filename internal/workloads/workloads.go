// Package workloads defines the ML models used by the paper's case studies
// as graph.Graph layer tables: ResNet-50, Inception-v3 and NasNet-A-Large
// for the datacenter study (Table II), and AlexNet for the Eyeriss runtime
// validation (Fig. 5(c)(d)).
package workloads

import (
	"fmt"
	"slices"

	"neurometer/internal/graph"
)

// AlexNet returns the classic five-conv AlexNet used by the Eyeriss paper
// (227x227 input, grouped conv2/4/5 modeled via reduced input channels).
func AlexNet() *graph.Graph {
	g := &graph.Graph{Name: "alexnet"}
	add := func(l graph.Layer) { g.Layers = append(g.Layers, l) }
	add(graph.Layer{Name: "conv1", Kind: graph.Conv2D, InH: 227, InW: 227, InC: 3, OutC: 96, KH: 11, KW: 11, Stride: 4})
	add(graph.Layer{Name: "pool1", Kind: graph.Pool, InH: 55, InW: 55, InC: 96, KH: 3, KW: 3, Stride: 2})
	add(graph.Layer{Name: "conv2", Kind: graph.Conv2D, InH: 27, InW: 27, InC: 48, OutC: 256, KH: 5, KW: 5, Stride: 1, SamePad: true})
	add(graph.Layer{Name: "pool2", Kind: graph.Pool, InH: 27, InW: 27, InC: 256, KH: 3, KW: 3, Stride: 2})
	add(graph.Layer{Name: "conv3", Kind: graph.Conv2D, InH: 13, InW: 13, InC: 256, OutC: 384, KH: 3, KW: 3, Stride: 1, SamePad: true})
	add(graph.Layer{Name: "conv4", Kind: graph.Conv2D, InH: 13, InW: 13, InC: 192, OutC: 384, KH: 3, KW: 3, Stride: 1, SamePad: true})
	add(graph.Layer{Name: "conv5", Kind: graph.Conv2D, InH: 13, InW: 13, InC: 192, OutC: 256, KH: 3, KW: 3, Stride: 1, SamePad: true})
	add(graph.Layer{Name: "pool5", Kind: graph.Pool, InH: 13, InW: 13, InC: 256, KH: 3, KW: 3, Stride: 2})
	add(graph.Layer{Name: "fc6", Kind: graph.MatMul, InH: 1, InW: 1, InC: 9216, OutC: 4096})
	add(graph.Layer{Name: "fc7", Kind: graph.MatMul, InH: 1, InW: 1, InC: 4096, OutC: 4096})
	add(graph.Layer{Name: "fc8", Kind: graph.MatMul, InH: 1, InW: 1, InC: 4096, OutC: 1000})
	return g
}

// Layer returns the named layer of a graph (for per-layer studies such as
// the Eyeriss AlexNet-Conv1/Conv5 runtime validation).
func Layer(g *graph.Graph, name string) (graph.Layer, error) {
	for _, l := range g.Layers {
		if l.Name == name {
			return l, nil
		}
	}
	return graph.Layer{}, fmt.Errorf("workloads: %s has no layer %q", g.Name, name)
}

// ResNet50 returns the ResNet-50 v1.5 table at 299x299 input (the
// inception-style preprocessing used in Google's TPU benchmark pipelines;
// the paper's Table II operand count of 7.8G multiply-adds matches this
// resolution, not the 224x224 variant's 4.1G).
func ResNet50() *graph.Graph {
	g := &graph.Graph{Name: "resnet"}
	add := func(l graph.Layer) { g.Layers = append(g.Layers, l) }
	add(graph.Layer{Name: "conv1", Kind: graph.Conv2D, InH: 299, InW: 299, InC: 3, OutC: 64, KH: 7, KW: 7, Stride: 2, SamePad: true})
	add(graph.Layer{Name: "pool1", Kind: graph.Pool, InH: 150, InW: 150, InC: 64, KH: 3, KW: 3, Stride: 2, SamePad: true})

	h, inC := 75, 64
	stage := func(name string, mid, out, blocks, stride int) {
		for b := 0; b < blocks; b++ {
			s := 1
			if b == 0 {
				s = stride
			}
			inH := h
			if b == 0 && stride > 1 {
				h = (h + stride - 1) / stride
			}
			// v1.5 places the stride on the 3x3.
			add(graph.Layer{Name: fmt.Sprintf("%s_b%d_1x1a", name, b), Kind: graph.Conv2D,
				InH: inH, InW: inH, InC: inC, OutC: mid, KH: 1, KW: 1, Stride: 1, SamePad: true})
			add(graph.Layer{Name: fmt.Sprintf("%s_b%d_3x3", name, b), Kind: graph.Conv2D,
				InH: inH, InW: inH, InC: mid, OutC: mid, KH: 3, KW: 3, Stride: s, SamePad: true})
			add(graph.Layer{Name: fmt.Sprintf("%s_b%d_1x1b", name, b), Kind: graph.Conv2D,
				InH: h, InW: h, InC: mid, OutC: out, KH: 1, KW: 1, Stride: 1, SamePad: true})
			if b == 0 {
				add(graph.Layer{Name: fmt.Sprintf("%s_b%d_down", name, b), Kind: graph.Conv2D,
					InH: inH, InW: inH, InC: inC, OutC: out, KH: 1, KW: 1, Stride: s, SamePad: true})
			}
			add(graph.Layer{Name: fmt.Sprintf("%s_b%d_add", name, b), Kind: graph.EltwiseAdd,
				InH: h, InW: h, InC: out})
			inC = out
		}
	}
	stage("s1", 64, 256, 3, 1)
	stage("s2", 128, 512, 4, 2)
	stage("s3", 256, 1024, 6, 2)
	stage("s4", 512, 2048, 3, 2)
	add(graph.Layer{Name: "gap", Kind: graph.GlobalPool, InH: h, InW: h, InC: 2048})
	add(graph.Layer{Name: "fc", Kind: graph.MatMul, InH: 1, InW: 1, InC: 2048, OutC: 1000})
	return g
}

// All returns the three datacenter case-study workloads of Table II.
func All() []*graph.Graph {
	return []*graph.Graph{ResNet50(), InceptionV3(), NasNetALarge()}
}

// bundled lists the workloads ByName resolves, one entry per model: the
// names it answers to, its graph's own Name first, and its constructor.
var bundled = []struct {
	names []string
	build func() (*graph.Graph, error)
}{
	{[]string{"resnet", "resnet50", "resnet-50"}, noErr(ResNet50)},
	{[]string{"inception", "inception-v3", "inceptionv3"}, noErr(InceptionV3)},
	{[]string{"nasnet", "nasnet-a-large", "nasnetalarge"}, noErr(NasNetALarge)},
	{[]string{"alexnet"}, noErr(AlexNet)},
	{[]string{"bert-base", "bert", "transformer"}, BERTBase},
	{[]string{"mobilenet", "mobilenet-v1", "mobilenetv1"}, noErr(MobileNetV1)},
}

func noErr(f func() *graph.Graph) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) { return f(), nil }
}

// ByName resolves a case-study workload, building a fresh graph.
func ByName(name string) (*graph.Graph, error) {
	for _, w := range bundled {
		if slices.Contains(w.names, name) {
			return w.build()
		}
	}
	return nil, fmt.Errorf("workloads: unknown model %q", name)
}

// Names lists every name ByName accepts, one group per bundled model; the
// first name of a group is the model's graph Name, the rest are aliases.
func Names() [][]string {
	groups := make([][]string, len(bundled))
	for i, w := range bundled {
		groups[i] = slices.Clone(w.names)
	}
	return groups
}
