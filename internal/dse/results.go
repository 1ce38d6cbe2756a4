package dse

import (
	"context"
	"encoding/json"
	"log/slog"
	"strconv"

	"neurometer/internal/chip"
	"neurometer/internal/graph"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/perfsim"
	"neurometer/internal/rstore"
)

// The result-store binding: a candidate evaluation is a pure function of
// (chip config, workload set, batch regime, simulator options), so that
// tuple — not the study it appeared in — is the content address of its
// RuntimeRow. Two studies sharing a design point share its stored result.
//
// Trust boundary: stored bytes are verified three ways before they can
// replace an evaluation — the rstore envelope checksum, the embedded
// fingerprint, and decodeStoredRow's own checks (the payload must
// deserialize, carry the expected design point, and have finite metrics,
// the same guard.CheckFinites gate a fresh evaluation passes). Any failure
// quarantines the entry and the candidate evaluates normally.

// resultStoreVersion is folded into every candidate fingerprint, so a
// change to the RuntimeRow payload schema orphans (rather than
// misinterprets) entries written by older builds.
const resultStoreVersion = 1

// mStoreHits counts candidate evaluations satisfied from the result store.
var mStoreHits = obs.NewCounter("dse.candidates_from_store")

// CandidateFingerprint derives the content address of one candidate
// evaluation. Unlike StudyFingerprint it is per-candidate and exact
// throughout: the chip config's injective Config.Fingerprint, the batch
// spec with its latency bound in full ('g', -1; BatchSpec.String rounds it
// to the millisecond, which would alias two batch regimes onto one stored
// result), every simulator option, and the length-prefixed model names.
func CandidateFingerprint(cfg chip.Config, models []string, spec BatchSpec, opt perfsim.Options) string {
	b := make([]byte, 0, 256)
	b = append(b, "rstore/v"...)
	b = strconv.AppendInt(b, resultStoreVersion, 10)
	b = append(b, "|cfg="...)
	b = append(b, cfg.Fingerprint()...)
	b = append(b, "|spec="...)
	b = strconv.AppendInt(b, int64(spec.Fixed), 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, spec.LatencyBound, 'g', -1, 64)
	b = append(b, "|opt="...)
	for _, on := range [...]bool{opt.SpaceToDepth, opt.SpaceToBatch, opt.DoubleBuffer} {
		b = strconv.AppendBool(b, on)
		b = append(b, ',')
	}
	b = append(b, "|models="...)
	for _, m := range models {
		b = strconv.AppendInt(b, int64(len(m)), 10)
		b = append(b, ':')
		b = append(b, m...)
		b = append(b, ',')
	}
	return string(b)
}

// modelNames projects a workload set onto the name list
// CandidateFingerprint uses.
func modelNames(models []*graph.Graph) []string {
	names := make([]string, len(models))
	for i, g := range models {
		names[i] = g.Name
	}
	return names
}

// encodeStoredRow serializes a RuntimeRow for the store. JSON float
// encoding is round-trip exact, so a decoded row is bit-identical to the
// evaluated one — the property the byte-identity tests pin down.
func encodeStoredRow(row RuntimeRow) ([]byte, error) {
	b, err := json.Marshal(row)
	if err != nil {
		// Unreachable for a CheckFinites-clean row; degrade to "not
		// persisted" rather than fail an evaluation that succeeded.
		return nil, guard.Invalid("dse: encode stored row: %v", err)
	}
	return b, nil
}

// decodeStoredRow deserializes and verifies a stored payload: it must
// parse, describe the expected design point, and pass the same finiteness
// gate a fresh evaluation passes. Failures classify as guard.ErrCorrupt so
// the caller quarantines the entry.
func decodeStoredRow(payload []byte, want Point) (RuntimeRow, error) {
	var row RuntimeRow
	if err := json.Unmarshal(payload, &row); err != nil {
		return RuntimeRow{}, guard.Corrupt("dse: stored row does not deserialize: %v", err)
	}
	if row.Point != want {
		return RuntimeRow{}, guard.Corrupt("dse: stored row is for %s, wanted %s", row.Point, want)
	}
	if err := guard.CheckFinites(
		"peak_tops", row.PeakTOPS, "achieved_tops", row.AchievedTOPS,
		"utilization", row.Utilization, "power_w", row.PowerW,
		"tops_per_w", row.TOPSPerWatt, "tops_per_tco", row.TOPSPerTCO,
	); err != nil {
		return RuntimeRow{}, guard.Corrupt("dse: stored row rejected: %v", err)
	}
	return row, nil
}

// lookupStoredRow consults the result store for one candidate; ok reports
// a fully verified hit. A nil cache, a miss, and every flavor of store
// fault all return ok=false — the caller evaluates.
func lookupStoredRow(ctx context.Context, cache *rstore.Cache, fp string, want Point) (RuntimeRow, bool) {
	var row RuntimeRow
	ok := cache.Lookup(ctx, fp, func(payload []byte) error {
		r, err := decodeStoredRow(payload, want)
		if err != nil {
			return err
		}
		row = r
		return nil
	})
	if ok {
		mStoreHits.Inc()
	}
	return row, ok
}

// evalStoreAware evaluates one candidate through the store's single-flight
// layer: concurrent evaluations of the same fingerprint (another study in
// this process, another worker goroutine) collapse to one, with the
// leader's successful row persisted best-effort. Waiters re-verify the
// shared bytes exactly like a disk read; if the bytes do not survive
// verification the waiter falls back to evaluating locally — a degraded
// flight changes cost, never results.
func evalStoreAware(ctx context.Context, cache *rstore.Cache, fp string, cand Candidate, sim *studySim, memo *simMemo, spec BatchSpec, opt perfsim.Options, h Hardening) (RuntimeRow, error) {
	if cache == nil {
		return evalWithRetry(ctx, cand, sim, memo, spec, opt, h)
	}
	var leaderRow RuntimeRow
	payload, shared, err := cache.Compute(ctx, fp, func() ([]byte, error) {
		row, err := evalWithRetry(ctx, cand, sim, memo, spec, opt, h)
		if err != nil {
			return nil, err
		}
		leaderRow = row
		b, eerr := encodeStoredRow(row)
		if eerr != nil {
			slog.WarnContext(ctx, "dse: result not persisted", "point", cand.Point.String(), "err", eerr)
			return nil, nil // row already captured; skip persistence only
		}
		return b, nil
	})
	if err != nil {
		return RuntimeRow{}, err
	}
	if !shared {
		return leaderRow, nil
	}
	row, derr := decodeStoredRow(payload, cand.Point)
	if derr != nil {
		cache.ReportBad(ctx, fp, derr)
		return evalWithRetry(ctx, cand, sim, memo, spec, opt, h)
	}
	mStoreHits.Inc()
	return row, nil
}
