package dse

import (
	"context"
	"errors"
	"testing"

	"neurometer/internal/guard"
)

// Block-claiming determinism: the BlockSize knob changes only which worker
// evaluates which candidate, so every observable artifact — table and
// CSV — must be byte-identical at any (workers, block) combination. Run under -race these tests also prove block claiming and
// the shared studySim/scratch pool are race-free.

func TestResolveBlock(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-1, DefaultBlockSize}, {0, DefaultBlockSize}, {1, 1}, {7, 7}, {1000, 1000},
	} {
		if got := resolveBlock(tc.in); got != tc.want {
			t.Errorf("resolveBlock(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRuntimeStudyBlockSizesByteIdentical(t *testing.T) {
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	run := func(workers, block int) (table, csv string) {
		rows, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt,
			Hardening{Workers: workers, BlockSize: block})
		if err != nil {
			t.Fatal(err)
		}
		return FormatRuntimeRows(rows), RuntimeRowsCSV(rows)
	}

	wantTable, wantCSV := run(1, 1)
	for _, workers := range []int{1, 8} {
		for _, block := range []int{1, 7, 64} {
			if workers == 1 && block == 1 {
				continue // the reference itself
			}
			table, csv := run(workers, block)
			if table != wantTable {
				t.Errorf("workers=%d block=%d: table differs from serial block-1 reference:\n--- want\n%s\n--- got\n%s",
					workers, block, wantTable, table)
			}
			if csv != wantCSV {
				t.Errorf("workers=%d block=%d: CSV differs from serial block-1 reference",
					workers, block)
			}
		}
	}
}

// TestRuntimeStudyMidBlockLayerFault injects one per-layer simulator fault
// into a parallel block-claiming study: exactly one candidate fails mid-
// block, the failure classifies correctly, and every other candidate's row
// is delivered untouched — a faulted block never poisons its neighbors'
// shared scratch or prepared tables.
func TestRuntimeStudyMidBlockLayerFault(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	boom := errors.New("mid-block layer fault")
	disarm := guard.Arm("perfsim.layer", guard.Fault{Skip: 3, Count: 1, Err: boom})
	rows, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt,
		Hardening{Workers: 8, BlockSize: 7})
	disarm()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cands)-1 {
		t.Fatalf("got %d rows, want %d (one candidate sacrificed to the injected fault)",
			len(rows), len(cands)-1)
	}

	// The surviving rows must be byte-identical to the corresponding rows of
	// a clean serial run: drop the one missing point and compare.
	clean, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	have := map[Point]bool{}
	for _, r := range rows {
		have[r.Point] = true
	}
	var kept []RuntimeRow
	for _, r := range clean {
		if have[r.Point] {
			kept = append(kept, r)
		}
	}
	if RuntimeRowsCSV(kept) != RuntimeRowsCSV(rows) {
		t.Fatalf("surviving rows differ from clean run:\n--- clean\n%s\n--- faulted\n%s",
			RuntimeRowsCSV(kept), RuntimeRowsCSV(rows))
	}
}
