package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"
	"strconv"
	"testing"
)

// Pinned output digests. Any change to the chip model (tech, circuit,
// memarray, components, chip) that moves a figure byte changes one of
// these, so a model change has to update them on purpose; a refactor or
// speed-up must leave them alone.
const (
	// fig10Digest hashes the three Fig. 10 regimes' RuntimeRowsCSV over
	// the second-round frontier; it is the same value perfbench prints as
	// its "fig10 digest".
	fig10Digest = "d2bb7b659956110a"
	// tableIDigest hashes every Table I candidate's PeakTOPS, AreaMM2 and
	// TDPW at full precision.
	tableIDigest = "c9367fd9c43a8576"
	// edgeDigest hashes every EdgeStudy row field at full precision; it
	// pins the edge chips' LPDDR-bounded runtimes and DRAM power.
	edgeDigest = "a605b0f12b563b33"
	// fig9Digest hashes every Fig9 row field and the latency-limited
	// batch of each model at full precision.
	fig9Digest = "9f3a295623ee8f54"
	// fig7Digest hashes every Fig7 row field at full precision, over the
	// batches cmd/dse -fig 7 prints.
	fig7Digest = "6e62fca92371127f"
)

// shortSum is the first 16 hex digits of h's sum, perfbench's digest form.
func shortSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// fig10OutputDigest hashes a Fig. 10 result the way TestFig10Digest does.
func fig10OutputDigest(out map[string][]RuntimeRow) string {
	h := sha256.New()
	for _, regime := range Fig10Regimes {
		io.WriteString(h, regime+"\n")
		io.WriteString(h, RuntimeRowsCSV(out[regime]))
	}
	return shortSum(h)
}

func TestTableIDigest(t *testing.T) {
	h := sha256.New()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range sweep {
		fmt.Fprintf(h, "%s %s %s %s\n", c.Point, g(c.PeakTOPS), g(c.AreaMM2), g(c.TDPW))
	}
	if got := shortSum(h); got != tableIDigest {
		t.Errorf("Table I candidate digest %s, want %s (%d candidates)", got, tableIDigest, len(sweep))
	}
}

func TestFig10Digest(t *testing.T) {
	cs := TableI()
	cands := Frontier(sweep, cs.TOPSCap)
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.PeakTOPS != b.PeakTOPS {
			return a.PeakTOPS > b.PeakTOPS
		}
		return a.Point.X > b.Point.X
	})
	out, err := Fig10Hardened(context.Background(), SecondRound(cands, cs.TOPSCap), DefaultModels(), Hardening{}, "")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, regime := range Fig10Regimes {
		io.WriteString(h, regime+"\n")
		io.WriteString(h, RuntimeRowsCSV(out[regime]))
	}
	if got := shortSum(h); got != fig10Digest {
		t.Errorf("Fig. 10 digest %s, want %s", got, fig10Digest)
	}
}

func TestFig9Digest(t *testing.T) {
	models := DefaultModels()
	rows, limits, err := Fig9(TableI(), models, []int{1, 4, 16, 64, 256})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rows {
		fmt.Fprintln(h, r.Model, r.Batch, g(r.FPS), g(r.LatencyMS), r.MeetsSLO10)
	}
	for _, m := range models {
		fmt.Fprintln(h, m.Name, limits[m.Name])
	}
	if got := shortSum(h); got != fig9Digest {
		t.Errorf("Fig. 9 digest %s, want %s (%d rows)", got, fig9Digest, len(rows))
	}
}

func TestFig7Digest(t *testing.T) {
	rows, err := Fig7(TableI(), DefaultModels(), []int{1, 4, 16, 64, 256})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rows {
		fmt.Fprintln(h, r.Model, r.Batch, g(r.FPSBefore), g(r.FPSAfter))
	}
	if got := shortSum(h); got != fig7Digest {
		t.Errorf("Fig. 7 digest %s, want %s (%d rows)", got, fig7Digest, len(rows))
	}
}

func TestEdgeStudyDigest(t *testing.T) {
	rows, err := EdgeStudy()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rows {
		fmt.Fprintln(h, r.Point, g(r.PeakTOPS), g(r.AreaMM2), g(r.TDPW), g(r.LatencyMS), g(r.FPS),
			g(r.PowerW), g(r.FPSPerWatt), g(r.Utilization),
			g(r.MobileLatencyMS), g(r.MobileFPS), g(r.MobileFPSPerWatt))
	}
	if got := shortSum(h); got != edgeDigest {
		t.Errorf("edge study digest %s, want %s (%d rows)", got, edgeDigest, len(rows))
	}
}
