package dse

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"neurometer/internal/guard"
)

// The stored-row codec: the payload a result-store hit is decoded from.

func TestStoredRowRoundTripFig10(t *testing.T) {
	out, err := Fig10Hardened(context.Background(), fig10Cands(), DefaultModels(), Hardening{}, "")
	if err != nil {
		t.Fatal(err)
	}
	var rows []RuntimeRow
	for _, regime := range Fig10Regimes {
		rows = append(rows, out[regime]...)
	}
	if len(rows) != 141 {
		t.Fatalf("Fig. 10 study has %d rows, want 141", len(rows))
	}
	for _, row := range rows {
		b := appendStoredRow(nil, row)
		if want := storedRowHead + 8*len(row.Batches); len(b) != want {
			t.Fatalf("%s: payload is %d bytes, want %d", row.Point, len(b), want)
		}
		got, err := decodeStoredRow(b, row.Point)
		if err != nil {
			t.Fatalf("%s: %v", row.Point, err)
		}
		if !reflect.DeepEqual(got, row) {
			t.Fatalf("%s: decoded %+v, wrote %+v", row.Point, got, row)
		}
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(row)
		for i := 0; i < gv.NumField(); i++ {
			if f := gv.Field(i); f.Kind() == reflect.Float64 && math.Float64bits(f.Float()) != math.Float64bits(wv.Field(i).Float()) {
				t.Fatalf("%s: %s is not bit-identical", row.Point, gv.Type().Field(i).Name)
			}
		}
		if re := appendStoredRow(nil, got); !bytes.Equal(re, b) {
			t.Fatalf("%s: decoded row re-encodes differently", row.Point)
		}
	}
}

func TestDecodeStoredRowRejects(t *testing.T) {
	row := RuntimeRow{Point: Point{X: 64, N: 2, Tx: 2, Ty: 4}, PeakTOPS: 90, AchievedTOPS: 30,
		Utilization: 0.3, PowerW: 80, TOPSPerWatt: 0.4, TOPSPerTCO: 1e-4, Batches: []int{1, 8, 256}}
	good := appendStoredRow(nil, row)
	with := func(edit func(r *RuntimeRow)) []byte {
		r := row
		edit(&r)
		return appendStoredRow(nil, r)
	}
	overrun := bytes.Clone(good)
	binary.LittleEndian.PutUint32(overrun[storedRowHead-4:], 4)
	huge := bytes.Clone(good)
	binary.LittleEndian.PutUint32(huge[storedRowHead-4:], math.MaxUint32)
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"one byte short", good[:len(good)-1]},
		{"one byte long", append(bytes.Clone(good), 0)},
		{"head only", good[:storedRowHead-1]},
		{"batch count overruns the payload", overrun},
		{"batch count of 2^32-1", huge},
		{"v1 JSON payload", []byte(`{"Point":{"X":64,"N":2,"Tx":2,"Ty":4},"PeakTOPS":90,"Batches":[1]}`)},
		{"wrong point", with(func(r *RuntimeRow) { r.Point.Ty = 2 })},
		{"NaN metric", with(func(r *RuntimeRow) { r.Utilization = math.NaN() })},
		{"+Inf metric", with(func(r *RuntimeRow) { r.PowerW = math.Inf(1) })},
		{"-Inf peak", with(func(r *RuntimeRow) { r.PeakTOPS = math.Inf(-1) })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeStoredRow(tc.payload, row.Point); !errors.Is(err, guard.ErrCorrupt) {
				t.Fatalf("decode error %v, want ErrCorrupt", err)
			}
		})
	}
	if got, err := decodeStoredRow(good, row.Point); err != nil || !reflect.DeepEqual(got, row) {
		t.Fatalf("untouched payload: %+v, %v", got, err)
	}
}

// FuzzDecodeStoredRow pins the stored-row decoder: no input panics, every
// rejection is ErrCorrupt, and every accepted payload re-encodes to the
// same bytes.
func FuzzDecodeStoredRow(f *testing.F) {
	want := Point{X: 32, N: 4, Tx: 2, Ty: 2}
	row := RuntimeRow{Point: want, PeakTOPS: 45, AchievedTOPS: 12.5, Utilization: 0.27,
		PowerW: 60, TOPSPerWatt: 0.2, TOPSPerTCO: 3e-5, Batches: []int{1, 64, 256}}
	f.Add(appendStoredRow(nil, row))
	row.Batches = nil
	f.Add(appendStoredRow(nil, row))
	row.Utilization = math.NaN()
	f.Add(appendStoredRow(nil, row))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, storedRowHead))

	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := decodeStoredRow(payload, want) // must never panic
		if err != nil {
			if !errors.Is(err, guard.ErrCorrupt) {
				t.Fatalf("rejection not classified as ErrCorrupt: %v", err)
			}
			return
		}
		if re := appendStoredRow(nil, got); !bytes.Equal(re, payload) {
			t.Fatalf("accepted payload is not canonical: %d in, %d out", len(payload), len(re))
		}
	})
}
