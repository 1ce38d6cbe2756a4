package dse

import (
	"encoding/csv"
	"strconv"
	"strings"
)

// RuntimeRowsCSVFormatVersion identifies the RuntimeRowsCSV schema. Bump
// it whenever runtimeRowsCSVHeader changes so downstream plotting scripts
// can detect drift.
const RuntimeRowsCSVFormatVersion = 1

// runtimeRowsCSVHeader is the stable column order of RuntimeRowsCSV.
// Append-only: existing columns must not be renamed or reordered within a
// format version.
var runtimeRowsCSVHeader = []string{
	"point", "x", "n", "tx", "ty",
	"peak_tops", "achieved_tops", "utilization", "power_w",
	"tops_per_watt", "tops_per_tco", "batches",
}

// RuntimeRowsCSV renders a runtime study's rows as CSV — the interchange
// format for plotting scripts and the byte-identity witness for the
// parallel sweep engine (serial, parallel, and store-backed runs of the
// same study must produce the same bytes). Floats use round-trip-exact 'g'
// formatting; the per-workload batch sizes are joined with ';' in workload
// order.
func RuntimeRowsCSV(rows []RuntimeRow) string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	w.Write(runtimeRowsCSVHeader)
	for _, r := range rows {
		batches := make([]string, len(r.Batches))
		for i, b := range r.Batches {
			batches[i] = strconv.Itoa(b)
		}
		w.Write([]string{
			r.Point.String(),
			strconv.Itoa(r.Point.X),
			strconv.Itoa(r.Point.N),
			strconv.Itoa(r.Point.Tx),
			strconv.Itoa(r.Point.Ty),
			cellF(r.PeakTOPS),
			cellF(r.AchievedTOPS),
			cellF(r.Utilization),
			cellF(r.PowerW),
			cellF(r.TOPSPerWatt),
			cellF(r.TOPSPerTCO),
			strings.Join(batches, ";"),
		})
	}
	w.Flush()
	return sb.String()
}

// cellF formats a float64 with the shortest representation that round-trips
// exactly, so equal values always produce equal bytes.
func cellF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
