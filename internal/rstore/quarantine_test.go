package rstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// setQuarantineCaps tightens the quarantine bounds for one test and
// restores the defaults on cleanup.
func setQuarantineCaps(t *testing.T, entries int, bytes int64) {
	t.Helper()
	oldE, oldB := quarantineMaxEntries, quarantineMaxBytes
	quarantineMaxEntries, quarantineMaxBytes = entries, bytes
	t.Cleanup(func() { quarantineMaxEntries, quarantineMaxBytes = oldE, oldB })
}

// plantGarbageEntry writes a syntactically-placed but corrupt *.res file
// into objects/, backdated by age so eviction order is testable.
func plantGarbageEntry(t *testing.T, dir string, i int, age time.Duration) {
	t.Helper()
	objects := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objects, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(objects, fmt.Sprintf("%040x", i)+entryExt)
	if err := os.WriteFile(path, []byte(fmt.Sprintf("garbage-%d", i)), 0o644); err != nil {
		t.Fatal(err)
	}
	mt := time.Now().Add(-age)
	if err := os.Chtimes(path, mt, mt); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineFloodStaysUnderCap is the regression test for the bounded
// quarantine: a flood of corrupt entries at startup must leave the
// quarantine directory at or under the entry cap, rotate the oldest
// entries out first, and account each removal in rstore.quarantine_evicted.
func TestQuarantineFloodStaysUnderCap(t *testing.T) {
	const cap = 5
	setQuarantineCaps(t, cap, 1<<20)
	dir := t.TempDir()
	const flood = 20
	for i := 0; i < flood; i++ {
		// Older index = older mtime; the scan quarantines in directory
		// order, so mtimes inherited by rename decide eviction order.
		plantGarbageEntry(t, dir, i, time.Duration(flood-i)*time.Hour)
	}

	evictedBefore := counter("rstore.quarantine_evicted")
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if got := s.Report().Quarantined; got != flood {
		t.Fatalf("scan quarantined %d entries, want %d", got, flood)
	}
	q := quarantined(t, s)
	if len(q) > cap {
		t.Fatalf("quarantine holds %d entries after flood, cap is %d: %v", len(q), cap, q)
	}
	evicted := counter("rstore.quarantine_evicted") - evictedBefore
	if want := int64(flood - cap); evicted != want {
		t.Fatalf("rstore.quarantine_evicted advanced by %d, want %d", evicted, want)
	}
	// The survivors must be the newest entries (highest indices).
	for _, name := range q {
		var idx int
		if _, err := fmt.Sscanf(name, "%x", &idx); err != nil {
			t.Fatalf("unexpected quarantine entry name %q", name)
		}
		if idx < flood-cap {
			t.Errorf("old entry %q survived rotation; want only the %d newest", name, cap)
		}
	}
}

// TestQuarantineByteCap checks the byte bound independently of the entry
// bound: entries rotate out oldest-first until total size fits.
func TestQuarantineByteCap(t *testing.T) {
	setQuarantineCaps(t, 1000, 30) // each garbage entry is ~9-10 bytes
	dir := t.TempDir()
	for i := 0; i < 8; i++ {
		plantGarbageEntry(t, dir, i, time.Duration(8-i)*time.Hour)
	}
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var total int64
	ents, err := os.ReadDir(s.qdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > 30 {
		t.Fatalf("quarantine holds %d bytes, cap is 30", total)
	}
	if len(ents) == 0 {
		t.Fatal("byte cap evicted everything; newest entries should survive")
	}
}
