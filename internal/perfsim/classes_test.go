package perfsim_test

import (
	"context"
	"testing"

	"neurometer/internal/chip"
	"neurometer/internal/dse"
	"neurometer/internal/perfsim"
	"neurometer/internal/refchips"
	"neurometer/internal/workloads"
)

// TestClassedMatchesOracle pins the shape-class simulation against the
// per-layer reference loop, bit for bit, on every Result field and every
// LayerStat: the Fig. 9/10 models plus AlexNet, MobileNet, BERT and a
// synthetic graph with more classes than fit the stack scratch, on every
// feasible Table I candidate and the reference chips, at batches 1, 3, 16,
// 256 and 512, with and without the software optimizations.
func TestClassedMatchesOracle(t *testing.T) {
	var chips []*chip.Chip
	for _, c := range dse.EnumerateCtx(context.Background(), dse.TableI()) {
		chips = append(chips, c.Chip)
	}
	for _, cfg := range []chip.Config{refchips.TPUv1(), refchips.TPUv2(), refchips.Eyeriss()} {
		c, err := chip.Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		chips = append(chips, c)
	}
	bert, err := workloads.BERTBase()
	if err != nil {
		t.Fatal(err)
	}
	graphs := append(workloads.All(), workloads.AlexNet(), workloads.MobileNetV1(), bert, perfsim.ManyShapes())
	for _, g := range graphs {
		p, err := perfsim.Prepare(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for _, c := range chips {
			for _, batch := range []int{1, 3, 16, 256, 512} {
				for _, opt := range []perfsim.Options{perfsim.DefaultOptions(), perfsim.NoOptimizations()} {
					perfsim.CheckMatchesOracle(t, c, g, p, batch, opt)
				}
			}
		}
	}
}
