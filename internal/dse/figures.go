package dse

import (
	"context"
	"fmt"
	"strings"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/pat"
	"neurometer/internal/perfsim"
)

// Fig7Row is one series point of Fig. 7: throughput before and after the
// software optimizations, per workload and batch size.
type Fig7Row struct {
	Model     string
	Batch     int
	FPSBefore float64
	FPSAfter  float64
}

// Gain returns the optimization speedup.
func (r Fig7Row) Gain() float64 { return r.FPSAfter / r.FPSBefore }

// Fig7 reproduces the software-optimization ablation on the throughput
// reference point (64,2,2,4). Each model is prepared once and simulated
// through one Ladder per option set.
func Fig7(cs Constraints, models []*graph.Graph, batches []int) ([]Fig7Row, error) {
	cand, err := buildPoint(cs, Point{64, 2, 2, 4})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var after, before perfsim.Ladder
	var rows []Fig7Row
	for _, g := range models {
		p, err := perfsim.Prepare(g)
		if err != nil {
			return nil, err
		}
		after.Reset(p, cand.Chip, perfsim.DefaultOptions())
		before.Reset(p, cand.Chip, perfsim.NoOptimizations())
		for _, bs := range batches {
			a, err := after.Simulate(ctx, bs)
			if err != nil {
				return nil, err
			}
			b, err := before.Simulate(ctx, bs)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig7Row{
				Model: g.Name, Batch: bs,
				FPSBefore: b.FPS, FPSAfter: a.FPS,
			})
		}
	}
	return rows, nil
}

func buildPoint(cs Constraints, p Point) (Candidate, error) {
	c, err := chip.BuildCached(cs.Config(p))
	if err != nil {
		return Candidate{}, err
	}
	return Candidate{
		Point: p, Chip: c,
		PeakTOPS: c.PeakTOPS(), AreaMM2: c.AreaMM2(), TDPW: c.TDPW(),
		PeakTOPSPerW: c.PeakTOPSPerWatt(), PeakTOPSPerTCO: c.PeakTOPSPerTCO(),
	}, nil
}

// Fig8Row is one x-axis entry of Fig. 8: per-component area and TDP plus
// the peak metrics.
type Fig8Row struct {
	Point          Point
	PeakTOPS       float64
	AreaMM2        float64
	TDPW           float64
	PeakTOPSPerW   float64
	PeakTOPSPerTCO float64
	AreaBreakdown  *pat.Breakdown
}

// Fig8 evaluates the representative design points' chip-level area/TDP
// breakdowns and peak efficiencies.
func Fig8(cands []Candidate) []Fig8Row {
	var rows []Fig8Row
	for _, c := range cands {
		rows = append(rows, Fig8Row{
			Point:          c.Point,
			PeakTOPS:       c.PeakTOPS,
			AreaMM2:        c.AreaMM2,
			TDPW:           c.TDPW,
			PeakTOPSPerW:   c.PeakTOPSPerW,
			PeakTOPSPerTCO: c.PeakTOPSPerTCO,
			AreaBreakdown:  c.Chip.AreaBreakdown(),
		})
	}
	return rows
}

// Fig9Row is one batch point of Fig. 9 for one model on (64,2,2,4).
type Fig9Row struct {
	Model      string
	Batch      int
	FPS        float64
	LatencyMS  float64
	MeetsSLO10 bool
}

// Fig9 sweeps batch sizes on the (64,2,2,4) reference point and reports
// throughput and latency per workload, plus the 10ms latency-limited batch.
// Each model is prepared once and simulated through one Ladder, so the
// latency ladder reuses the listed power-of-two batches' simulations and
// simulates only the batch sizes the list lacks.
func Fig9(cs Constraints, models []*graph.Graph, batches []int) ([]Fig9Row, map[string]int, error) {
	cand, err := buildPoint(cs, Point{64, 2, 2, 4})
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	var l perfsim.Ladder
	var rows []Fig9Row
	limits := map[string]int{}
	for _, g := range models {
		p, err := perfsim.Prepare(g)
		if err != nil {
			return nil, nil, err
		}
		l.Reset(p, cand.Chip, perfsim.DefaultOptions())
		for _, bs := range batches {
			r, err := l.Simulate(ctx, bs)
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, Fig9Row{
				Model: g.Name, Batch: bs, FPS: r.FPS,
				LatencyMS:  r.LatencySec * 1e3,
				MeetsSLO10: r.LatencySec <= 10e-3,
			})
		}
		lim, _, err := l.LatencyLimited(ctx, 10e-3)
		if err != nil {
			return nil, nil, err
		}
		limits[g.Name] = lim
	}
	return rows, limits, nil
}

// Fig10Regimes lists the batch regimes of Fig. 10 in execution order.
var Fig10Regimes = []string{"a-small", "b-medium", "c-large"}

// Fig10Hardened runs the three batch regimes of Fig. 10 over the candidate
// set under a hardening envelope: (a) batch 1, (b) 10ms-latency-limited
// batch, (c) batch 256, keyed by the Fig10Regimes names. It is one runtime
// study over all three regimes: each candidate's three rows are evaluated
// together and share their simulations, so regime b's latency ladder
// reuses regime a's batch-1 simulation (and regime c's batch 256 when the
// ladder reaches it). Rows, store entries and output bytes are those of
// three separate RuntimeStudyHardened calls. The first regime, in
// Fig10Regimes order, whose candidates all failed fails the run as
// "fig10 <regime>: …"; an interrupted run returns a nil map and the
// classified cause as "fig10: …".
//
// checkpointPath is kept only for signature compatibility and must be
// empty: studies no longer checkpoint, so any other value fails with
// guard.ErrInvalidConfig rather than silently dropping the checkpoint the
// caller asked for. An interrupted run resumes by rerunning with the same
// h.Results store.
func Fig10Hardened(ctx context.Context, cands []Candidate, models []*graph.Graph, h Hardening, checkpointPath string) (map[string][]RuntimeRow, error) {
	if checkpointPath != "" {
		return nil, guard.Invalid("dse: fig10: checkpoint %q: study checkpoints were removed; rerun with the same result store to resume", checkpointPath)
	}
	specs := []BatchSpec{{Fixed: 1}, {LatencyBound: 10e-3}, {Fixed: 256}}
	rows, failed, err := runtimeStudy(ctx, cands, models, specs, perfsim.DefaultOptions(), h)
	if err != nil {
		return nil, fmt.Errorf("fig10: %w", err)
	}
	out := map[string][]RuntimeRow{}
	for s, name := range Fig10Regimes {
		if failed[s] != nil {
			return nil, fmt.Errorf("fig10 %s: %w", name, failed[s])
		}
		out[name] = rows[s]
	}
	return out, nil
}

// FormatRuntimeRows renders a Fig. 10 style table.
func FormatRuntimeRows(rows []RuntimeRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %9s %9s %7s %8s %10s %12s\n",
		"point", "peakTOPS", "achTOPS", "util", "powerW", "TOPS/W", "TOPS/TCO")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %9.2f %9.2f %6.1f%% %8.1f %10.4f %12.6f\n",
			r.Point, r.PeakTOPS, r.AchievedTOPS, r.Utilization*100, r.PowerW,
			r.TOPSPerWatt, r.TOPSPerTCO*1e3)
	}
	return sb.String()
}
