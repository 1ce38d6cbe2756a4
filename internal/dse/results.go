package dse

import (
	"context"
	"encoding/binary"
	"math"
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
// fingerprint, and decodeStoredRow's own checks (the payload must have
// the exact length of its layout, carry the expected design point, and
// have finite metrics, the same guard.CheckFinites gate a fresh evaluation
// passes). Any failure quarantines the entry and the candidate evaluates
// normally.

// resultStoreVersion is folded into every candidate fingerprint, so a
// change to the RuntimeRow payload layout orphans (rather than
// misinterprets) entries written by older builds: version 1 stored JSON.
const resultStoreVersion = 2

// mStoreHits counts candidate evaluations satisfied from the result store.
var mStoreHits = obs.NewCounter("dse.candidates_from_store")

// CandidateFingerprint derives the content address of one candidate
// evaluation. It is exact throughout: the chip config's injective
// Config.Fingerprint, the batch spec with its latency bound in full ('g',
// -1; BatchSpec.String rounds it to the millisecond, which would alias two
// batch regimes onto one stored result), every simulator option, and the
// length-prefixed model names.
func CandidateFingerprint(cfg chip.Config, models []string, spec BatchSpec, opt perfsim.Options) string {
	return candidateFingerprint(cfg.Fingerprint(), models, spec, opt)
}

// candidateFingerprint is CandidateFingerprint over an already rendered
// Config.Fingerprint, so a study renders each candidate's config once for
// all of its batch regimes.
func candidateFingerprint(cfgFP string, models []string, spec BatchSpec, opt perfsim.Options) string {
	b := make([]byte, 0, 128+len(cfgFP))
	b = append(b, "rstore/v"...)
	b = strconv.AppendInt(b, resultStoreVersion, 10)
	b = append(b, "|cfg="...)
	b = append(b, cfgFP...)
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

// The stored payload is a fixed little-endian layout, no text: the four
// Point fields as int64, the six metrics as IEEE-754 bit patterns (so a row
// read back is bit-identical to the evaluated one), then a uint32 batch
// count and one int64 per batch. storedRowHead is the length before the
// batches.
const storedRowHead = 4*8 + 6*8 + 4

// appendStoredRow appends row's payload encoding to b.
func appendStoredRow(b []byte, row RuntimeRow) []byte {
	for _, v := range [...]int{row.Point.X, row.Point.N, row.Point.Tx, row.Point.Ty} {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	for _, f := range [...]float64{row.PeakTOPS, row.AchievedTOPS, row.Utilization, row.PowerW, row.TOPSPerWatt, row.TOPSPerTCO} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(row.Batches)))
	for _, v := range row.Batches {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	return b
}

// decodeStoredRow decodes and verifies a stored payload: it must have
// exactly the length its batch count implies (checked before anything is
// allocated), describe the expected design point, and pass the same
// finiteness gate a fresh evaluation passes. Failures classify as
// guard.ErrCorrupt so the caller quarantines the entry.
func decodeStoredRow(payload []byte, want Point) (RuntimeRow, error) {
	if len(payload) < storedRowHead {
		return RuntimeRow{}, guard.Corrupt("dse: stored row is %d bytes, under the %d-byte head", len(payload), storedRowHead)
	}
	le := binary.LittleEndian
	n := uint64(le.Uint32(payload[storedRowHead-4:]))
	if uint64(len(payload)) != storedRowHead+8*n {
		return RuntimeRow{}, guard.Corrupt("dse: stored row is %d bytes, %d batches need %d", len(payload), n, storedRowHead+8*n)
	}
	word := func(i int) uint64 { return le.Uint64(payload[8*i:]) }
	row := RuntimeRow{
		Point:        Point{X: int(int64(word(0))), N: int(int64(word(1))), Tx: int(int64(word(2))), Ty: int(int64(word(3)))},
		PeakTOPS:     math.Float64frombits(word(4)),
		AchievedTOPS: math.Float64frombits(word(5)),
		Utilization:  math.Float64frombits(word(6)),
		PowerW:       math.Float64frombits(word(7)),
		TOPSPerWatt:  math.Float64frombits(word(8)),
		TOPSPerTCO:   math.Float64frombits(word(9)),
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
	if n > 0 {
		row.Batches = make([]int, n)
		for i := range row.Batches {
			row.Batches[i] = int(int64(le.Uint64(payload[storedRowHead+8*i:])))
		}
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

// storeRow saves a computed row best effort, in the layout
// decodeStoredRow reads. A failed write is counted and logged by the cache;
// it never fails the evaluation that produced the row.
func storeRow(cache *rstore.Cache, fp string, row RuntimeRow) {
	cache.Put(fp, appendStoredRow(make([]byte, 0, storedRowHead+8*len(row.Batches)), row))
}
