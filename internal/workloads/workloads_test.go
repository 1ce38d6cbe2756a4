package workloads

import (
	"math"
	"testing"

	"neurometer/internal/graph"
)

// within reports |got-want|/want <= tol.
func within(got, want, tol float64) bool {
	return math.Abs(got-want)/want <= tol
}

// TestTableII reproduces Table II of the paper: the workload
// characteristics of ResNet, Inception and NasNet. The paper's "#MAC Op"
// column is multiply-add counts; #Param is the Int8-quantized model size.
func TestTableII(t *testing.T) {
	for _, tc := range []struct {
		name        string
		paperMACsG  float64
		paperParamM float64
	}{
		{"resnet", 7.8, 23.7},
		{"inception", 5.7, 22.0},
		{"nasnet", 23.8, 84.9},
	} {
		g, err := ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		gotMACs := float64(g.MACs()) / 1e9
		if !within(gotMACs, tc.paperMACsG, 0.05) {
			t.Errorf("%s MACs %.2fG vs paper %.1fG (>5%% off)", tc.name, gotMACs, tc.paperMACsG)
		}
		gotParams := float64(g.Params()) / 1e6
		if !within(gotParams, tc.paperParamM, 0.10) {
			t.Errorf("%s params %.1fM vs paper %.1fM (>10%% off)", tc.name, gotParams, tc.paperParamM)
		}
	}
}

func TestGraphsValidate(t *testing.T) {
	for _, g := range All() {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		if g.PeakDataBytes() <= 0 {
			t.Errorf("%s: no data footprint", g.Name)
		}
	}
	if err := AlexNet().Validate(); err != nil {
		t.Errorf("alexnet: %v", err)
	}
}

func TestAlexNetEyerissLayers(t *testing.T) {
	// Eyeriss reports conv1 = 105.4M MACs and conv5 = 74.6M (grouped).
	a := AlexNet()
	c1, err := Layer(a, "conv1")
	if err != nil {
		t.Fatal(err)
	}
	if !within(float64(c1.MACs()), 105.4e6, 0.01) {
		t.Errorf("conv1 MACs %.1fM, want 105.4M", float64(c1.MACs())/1e6)
	}
	c5, err := Layer(a, "conv5")
	if err != nil {
		t.Fatal(err)
	}
	if !within(float64(c5.MACs()), 74.6e6, 0.01) {
		t.Errorf("conv5 MACs %.1fM, want 74.6M", float64(c5.MACs())/1e6)
	}
	if _, err := Layer(a, "conv99"); err == nil {
		t.Errorf("missing layer must error")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"resnet", "resnet50", "inception", "inceptionv3", "nasnet", "alexnet"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("gpt2"); err == nil {
		t.Errorf("unknown model must fail")
	}
}

func TestNasNetIsHeaviest(t *testing.T) {
	r, i, n := ResNet50(), InceptionV3(), NasNetALarge()
	if n.MACs() <= r.MACs() || n.MACs() <= i.MACs() {
		t.Errorf("NasNet must have the most MACs")
	}
	if n.Params() <= r.Params() {
		t.Errorf("NasNet must have the most params")
	}
	// NasNet is dominated by depthwise-separable structure: it should have
	// far more layers than ResNet.
	if len(n.Layers) < 3*len(r.Layers) {
		t.Errorf("NasNet layer count suspicious: %d vs %d", len(n.Layers), len(r.Layers))
	}
}

func TestInceptionChannelMath(t *testing.T) {
	g := InceptionV3()
	// The stem must end at 35x35x192 and the first InceptionA concat at 256.
	var sawStemPool, sawConcat bool
	for _, l := range g.Layers {
		if l.Name == "stem_pool2" {
			sawStemPool = true
			if l.OutH() != 35 {
				t.Errorf("stem_pool2 out %d, want 35", l.OutH())
			}
		}
		if l.Name == "mixedA0_concat" {
			sawConcat = true
			if l.InC != 256 {
				t.Errorf("mixedA0 channels %d, want 256", l.InC)
			}
		}
	}
	if !sawStemPool || !sawConcat {
		t.Errorf("landmark layers missing")
	}
}

func TestTransformerEncoder(t *testing.T) {
	if _, err := TransformerEncoder(0, 768, 12, 512); err == nil {
		t.Errorf("zero layers must fail")
	}
	if _, err := TransformerEncoder(12, 768, 11, 512); err == nil {
		t.Errorf("indivisible heads must fail")
	}
	g, err := BERTBase()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// BERT-base: ~85M encoder+pooler params, ~95M MACs per token.
	if !within(float64(g.Params()), 85.6e6, 0.03) {
		t.Errorf("bert params %.1fM, want ~85.6M", float64(g.Params())/1e6)
	}
	if !within(float64(g.MACs()), 95.0e6, 0.03) {
		t.Errorf("bert MACs/token %.1fM, want ~95M", float64(g.MACs())/1e6)
	}
	// Attention products carry no weights.
	for _, l := range g.Layers {
		if l.DynamicB && l.Params() != 0 {
			t.Fatalf("dynamic matmul %s must have no params", l.Name)
		}
	}
	if _, err := ByName("bert"); err != nil {
		t.Errorf("ByName(bert): %v", err)
	}
}

func TestMobileNetV1(t *testing.T) {
	g := MobileNetV1()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Canonical MobileNet-224 1.0x: ~569M MACs, ~4.2M params.
	if !within(float64(g.MACs()), 569e6, 0.05) {
		t.Errorf("mobilenet MACs %.0fM, want ~569M", float64(g.MACs())/1e6)
	}
	if !within(float64(g.Params()), 4.2e6, 0.05) {
		t.Errorf("mobilenet params %.2fM, want ~4.2M", float64(g.Params())/1e6)
	}
	// Depthwise layers carry a meaningful MAC share (the point of the model).
	var dwMACs int64
	for _, l := range g.Layers {
		if l.Kind == graph.DepthwiseConv2D {
			dwMACs += l.MACs()
		}
	}
	if frac := float64(dwMACs) / float64(g.MACs()); frac < 0.02 || frac > 0.15 {
		t.Errorf("depthwise MAC share %.3f out of the expected band", frac)
	}
	if _, err := ByName("mobilenet"); err != nil {
		t.Errorf("ByName: %v", err)
	}
}

// TestNamesResolve checks that every name Names lists resolves through
// ByName to a graph named by its group's first name, and that no name
// belongs to two groups.
func TestNamesResolve(t *testing.T) {
	seen := map[string]bool{}
	for _, group := range Names() {
		for _, name := range group {
			if seen[name] {
				t.Errorf("%q is listed twice", name)
			}
			seen[name] = true
			g, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if g.Name != group[0] {
				t.Errorf("ByName(%q) is %q, want %q", name, g.Name, group[0])
			}
		}
	}
	if _, err := ByName("vgg"); err == nil {
		t.Error("an unknown name must not resolve")
	}
}
