package chip_test

import (
	"context"
	"math"
	"sort"
	"testing"

	"neurometer/internal/chip"
	"neurometer/internal/dse"
	"neurometer/internal/periph"
	"neurometer/internal/refchips"
)

// TestStoredTDPAndArea checks that the TDP and die area a Chip stores at
// Build equal the values recomputed from its parts, bit for bit, for every
// chip of a Table I enumeration and every reference preset.
func TestStoredTDPAndArea(t *testing.T) {
	chips := map[string]*chip.Chip{}
	chip.ResetBuildCache()
	for _, cand := range dse.EnumerateCtx(context.Background(), dse.TableI()) {
		chips["tableI"+cand.Point.String()] = cand.Chip
	}
	if len(chips) != 60 {
		t.Fatalf("Table I enumeration built %d chips, want 60", len(chips))
	}
	for name, cfg := range map[string]chip.Config{
		"tpuv1": refchips.TPUv1(), "tpuv2": refchips.TPUv2(), "eyeriss": refchips.Eyeriss(),
	} {
		c, err := chip.Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		chips[name] = c
	}

	for name, c := range chips {
		parts := chip.TDPParts(c)
		keys := make([]string, 0, len(parts))
		for k := range parts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sum float64
		for _, k := range keys {
			sum += parts[k]
		}
		if want := sum * chip.TDPGuardband; math.Float64bits(c.TDPW()) != math.Float64bits(want) {
			t.Errorf("%s: stored TDP %v W, recomputed %v W", name, c.TDPW(), want)
		}

		want := chip.ModeledAreaUM2(c) / 1e6
		if ws := c.Cfg.WhiteSpaceFrac; ws > 0 && ws < 1 {
			want /= 1 - ws
		}
		if math.Float64bits(c.AreaMM2()) != math.Float64bits(want) {
			t.Errorf("%s: stored area %v mm2, recomputed %v mm2", name, c.AreaMM2(), want)
		}
	}
}

// TestTDPSumOrderEveryPeriphKind: TDPW sums its parts in sorted name order
// from a fixed list, in which the peripheral kinds interleave with the core
// parts. Chips with ports of every kind, two of some, at 256 bandwidth
// scales check that list against the sorted parts map bit for bit;
// reduction trees beside the tensor units give them every core part too.
func TestTDPSumOrderEveryPeriphKind(t *testing.T) {
	for scale := 1; scale <= 256; scale++ {
		cfg := refchips.TPUv2()
		cfg.Core.NumRTs, cfg.Core.RTInputs = 1, 64
		cfg.OffChip = nil
		for k := periph.DDRPort; k <= periph.LPDDRPort; k++ {
			gbps := float64(scale) * (1.3 + 0.7*float64(k))
			cfg.OffChip = append(cfg.OffChip, chip.OffChipPort{Kind: k, GBps: gbps, Count: 1 + int(k)%2})
		}
		c, err := chip.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parts := chip.TDPParts(c)
		keys := make([]string, 0, len(parts))
		for k := range parts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sum float64
		for _, k := range keys {
			sum += parts[k]
		}
		if len(keys) < 15 {
			t.Fatalf("parts %v: want every core part and every peripheral kind", keys)
		}
		if want := sum * chip.TDPGuardband; math.Float64bits(c.TDPW()) != math.Float64bits(want) {
			t.Errorf("scale %d: stored TDP %v W, recomputed %v W", scale, c.TDPW(), want)
		}
	}
}
