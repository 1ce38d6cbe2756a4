package dse

import (
	"context"
	"io"
	"log/slog"
	"sort"
	"testing"

	"neurometer/internal/obs"
	"neurometer/internal/rstore"
)

// BenchmarkFig10Study times the Fig. 10 runtime study alone: the exact
// Fig10Hardened call of perfbench's study-warm op (one worker, no result
// store) over the pre-built Table I candidates, ordered and pruned as
// cmd/dse orders them, so no chip is constructed while timing. Each
// iteration runs 801 simulations; the first one checks the Fig. 10 digest.
func BenchmarkFig10Study(b *testing.B) {
	cands, models := fig10Cands(), DefaultModels()
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

// BenchmarkFig10StoreHits times perfbench's store-warm op in process: open
// the disk result store that set-up filled and read the whole Fig. 10 study
// back from it, 141 verified hits and no simulation. The first read-back
// checks the Fig. 10 digest.
func BenchmarkFig10StoreHits(b *testing.B) {
	cands, models := fig10Cands(), DefaultModels()
	ctx := context.Background()
	dir := b.TempDir()
	// Every open logs the store it found; keep that out of the timing.
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	b.Cleanup(func() { slog.SetDefault(prev) })
	study := func() (map[string][]RuntimeRow, error) {
		st, err := rstore.OpenDisk(dir)
		if err != nil {
			return nil, err
		}
		cache := rstore.NewCache(st)
		out, err := Fig10Hardened(ctx, cands, models, Hardening{Workers: 1, Results: cache}, "")
		if cerr := cache.Close(); err == nil {
			err = cerr
		}
		return out, err
	}
	if _, err := study(); err != nil { // fills the store
		b.Fatal(err)
	}
	hits := obs.Default().Snapshot().Counters["dse.candidates_from_store"]
	out, err := study()
	if err != nil {
		b.Fatal(err)
	}
	if got := fig10OutputDigest(out); got != fig10Digest {
		b.Fatalf("Fig. 10 digest %s, want %s", got, fig10Digest)
	}
	if got := obs.Default().Snapshot().Counters["dse.candidates_from_store"] - hits; got != 141 {
		b.Fatalf("read-back took %d rows from the store, want 141", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study(); err != nil {
			b.Fatal(err)
		}
	}
}

// fig10Cands returns the pre-built Table I candidates ordered and pruned as
// cmd/dse orders them: the Fig. 10 study's candidate list.
func fig10Cands() []Candidate {
	cs := TableI()
	cands := Frontier(sweep, cs.TOPSCap)
	sort.Slice(cands, func(i, j int) bool {
		a, c := cands[i], cands[j]
		if a.PeakTOPS != c.PeakTOPS {
			return a.PeakTOPS > c.PeakTOPS
		}
		return a.Point.X > c.Point.X
	})
	return SecondRound(cands, cs.TOPSCap)
}
