package dse

import (
	"context"
	"sort"
	"testing"
)

// BenchmarkFig10Study times the Fig. 10 runtime study alone: the exact
// Fig10Hardened call of perfbench's study-warm op (one worker, no result
// store) over the pre-built Table I candidates, ordered and pruned as
// cmd/dse orders them, so no chip is constructed while timing. Each
// iteration runs 801 simulations; the first one checks the Fig. 10 digest.
func BenchmarkFig10Study(b *testing.B) {
	cs := TableI()
	cands := Frontier(sweep, cs.TOPSCap)
	sort.Slice(cands, func(i, j int) bool {
		a, c := cands[i], cands[j]
		if a.PeakTOPS != c.PeakTOPS {
			return a.PeakTOPS > c.PeakTOPS
		}
		return a.Point.X > c.Point.X
	})
	cands = SecondRound(cands, cs.TOPSCap)
	models := DefaultModels()
	ctx := context.Background()
	out, err := Fig10Hardened(ctx, cands, models, Hardening{Workers: 1}, "")
	if err != nil {
		b.Fatal(err)
	}
	if got := fig10OutputDigest(out); got != fig10Digest {
		b.Fatalf("Fig. 10 digest %s, want %s", got, fig10Digest)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig10Hardened(ctx, cands, models, Hardening{Workers: 1}, ""); err != nil {
			b.Fatal(err)
		}
	}
}
