package dse

import (
	"context"
	"fmt"
	"testing"
)

// frontierBin is the reference peak-TOPS binning of Fig. 8's x-axis:
// bin 0 is (0.6, 1.001] x cap, bins 1-3 halve it down to (0.075, 0.15],
// and bin 4 is everything at or below 0.075 x cap.
func frontierBin(peak, topsCap float64) int {
	bin := 0
	for b := topsCap; b >= topsCap/8-1e-9; b /= 2 {
		if peak > b*0.6 {
			break
		}
		bin++
	}
	return bin
}

// binDuplicates lists the candidates that share an (X, N, bin) with an
// earlier one, the points a one-per-bin frontier would have to drop.
func binDuplicates(cands []Candidate, topsCap float64) []Point {
	type key struct{ x, n, bin int }
	seen := map[key]bool{}
	var dups []Point
	for _, c := range cands {
		k := key{c.Point.X, c.Point.N, frontierBin(c.PeakTOPS, topsCap)}
		if seen[k] {
			dups = append(dups, c.Point)
		}
		seen[k] = true
	}
	return dups
}

// A per-(X, N, peak-TOPS bin) frontier prunes nothing the runtime study
// sees. Grids are power-of-two with Ty = Tx or 2·Tx, so for fixed (X, N)
// each grid has its own tile count and peak TOPS doubles from one grid to
// the next: bins 0-3 span a ratio of at most 2 with one end open and hold
// one grid each, and bin 4 lies below SecondRound's cap/12 floor. So after
// SecondRound every (X, N, bin) holds at most one candidate, under Table I
// and under the other clocks, caps, X choices and tile bounds below; and
// at Table I the whole feasible set does, so Fig. 8 keeps every point.
// binned marks the sets whose feasible points do share a bin (all in
// bin 4), so the check is seen to fire where there is something to find.
func TestSecondRoundHoldsOnePointPerFrontierBin(t *testing.T) {
	if dups := binDuplicates(sweep, TableI().TOPSCap); len(dups) > 0 {
		t.Errorf("Table I feasible set: %v share an (X, N, bin) with another point", dups)
	}
	for _, tc := range []struct {
		name   string
		mod    func(*Constraints)
		binned bool
	}{
		{"table-i", func(*Constraints) {}, false},
		{"clock-1ghz", func(cs *Constraints) { cs.ClockHz = 1e9 }, false},
		{"clock-900mhz", func(cs *Constraints) { cs.ClockHz = 900e6 }, false},
		{"cap-60", func(cs *Constraints) { cs.TOPSCap = 60 }, false},
		{"cap-45", func(cs *Constraints) { cs.TOPSCap = 45 }, true},
		{"x-12-24-48-96", func(cs *Constraints) { cs.XChoices = []int{12, 24, 48, 96} }, true},
		{"max-tiles-16", func(cs *Constraints) { cs.MaxTiles = 16 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := TableI()
			tc.mod(&cs)
			feasible := EnumerateCtx(context.Background(), cs)
			if binned := len(binDuplicates(feasible, cs.TOPSCap)) > 0; binned != tc.binned {
				t.Errorf("feasible set shares a bin: %v, want %v", binned, tc.binned)
			}
			cands := SecondRound(feasible, cs.TOPSCap)
			if len(cands) == 0 {
				t.Fatal("no candidates survive the second round")
			}
			if dups := binDuplicates(cands, cs.TOPSCap); len(dups) > 0 {
				t.Errorf("%v share an (X, N, bin) with another point", dups)
			}
		})
	}
}

// SecondRound's "extremely low peak" prune drops the utilization winner of
// the exhaustive Table I study in every Fig. 10 regime, and changes no
// other winner: throughput, TOPS/W and TOPS/TCO pick the same point from
// all 60 feasible points as from the 47 the runtime study keeps.
func TestSecondRoundDropsOnlyUtilizationWinners(t *testing.T) {
	ctx := context.Background()
	cs := TableI()
	all, err := Fig10Hardened(ctx, sweep, DefaultModels(), Hardening{Workers: 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Fig10Hardened(ctx, SecondRound(sweep, cs.TOPSCap), DefaultModels(), Hardening{Workers: 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	winner := func(rows []RuntimeRow, metric func(RuntimeRow) float64) RuntimeRow {
		t.Helper()
		w, err := Winner(rows, metric)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, tc := range []struct {
		regime            string
		allWin, prunedWin string // utilization winner, point and percent
	}{
		{"a-small", "(16,2,2,4) 62.9%", "(16,4,2,4) 53.7%"},
		{"b-medium", "(16,2,2,4) 70.6%", "(16,4,2,4) 68.3%"},
		{"c-large", "(4,4,8,8) 83.6%", "(8,4,4,8) 83.2%"},
	} {
		util := func(rows []RuntimeRow) string {
			w := winner(rows, ByUtilization)
			return fmt.Sprintf("%s %.1f%%", w.Point, 100*w.Utilization)
		}
		if got := util(all[tc.regime]); got != tc.allWin {
			t.Errorf("%s: utilization winner over all %d points %s, want %s", tc.regime, len(sweep), got, tc.allWin)
		}
		if got := util(pruned[tc.regime]); got != tc.prunedWin {
			t.Errorf("%s: utilization winner after SecondRound %s, want %s", tc.regime, got, tc.prunedWin)
		}
		for name, metric := range map[string]func(RuntimeRow) float64{
			"throughput": ByAchievedTOPS, "TOPS/W": ByTOPSPerWatt, "TOPS/TCO": ByTOPSPerTCO,
		} {
			a, p := winner(all[tc.regime], metric).Point, winner(pruned[tc.regime], metric).Point
			if a != p {
				t.Errorf("%s: %s winner %s over all points, %s after SecondRound", tc.regime, name, a, p)
			}
		}
	}
}
