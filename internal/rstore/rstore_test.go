package rstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

func counter(name string) int64 {
	return obs.Default().Snapshot().Counters[name]
}

// entryFile returns the single *.res file under the store's object tree,
// failing the test unless exactly n exist (returns the first).
func entryFiles(t *testing.T, s *DiskStore, n int) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(s.odir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == entryExt {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != n {
		t.Fatalf("got %d entry files, want %d", len(files), n)
	}
	return files
}

func quarantined(t *testing.T, s *DiskStore) []string {
	t.Helper()
	ents, err := os.ReadDir(s.qdir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestEntryRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)} {
		b, err := EncodeEntry("fp-1", payload)
		if err != nil {
			t.Fatal(err)
		}
		fp, got, err := DecodeEntry(b)
		if err != nil {
			t.Fatal(err)
		}
		if fp != "fp-1" || !bytes.Equal(got, payload) {
			t.Fatalf("round trip mismatch: fp=%q payload=%d bytes", fp, len(got))
		}
	}
	if _, err := EncodeEntry("", nil); !errors.Is(err, guard.ErrInvalidConfig) {
		t.Fatalf("empty fingerprint: got %v, want ErrInvalidConfig", err)
	}
}

func TestEntryEveryBitFlipDetected(t *testing.T) {
	b, err := EncodeEntry("fingerprint", []byte("payload bytes"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		mut := bytes.Clone(b)
		mut[i] ^= 0x40
		if _, _, err := DecodeEntry(mut); err == nil {
			t.Fatalf("flip at offset %d went undetected", i)
		} else if !errors.Is(err, guard.ErrCorrupt) {
			t.Fatalf("flip at offset %d: got %v, want ErrCorrupt", i, err)
		}
	}
	// Every truncation must be detected too (torn write).
	for n := 0; n < len(b); n++ {
		if _, _, err := DecodeEntry(b[:n]); !errors.Is(err, guard.ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
}

func TestEntryForeignVersionRejected(t *testing.T) {
	b, err := EncodeEntry("fp", []byte("v2 payload"))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[4:8], EntryVersion+1)
	if _, _, err := DecodeEntry(b); !errors.Is(err, guard.ErrCorrupt) {
		t.Fatalf("foreign version: got %v, want ErrCorrupt", err)
	}
}

func TestEntryImplausibleLengthsRejected(t *testing.T) {
	b, _ := EncodeEntry("fp", []byte("p"))
	for _, off := range []int{8, 12} { // fpLen, payLen
		mut := bytes.Clone(b)
		binary.LittleEndian.PutUint32(mut[off:off+4], 0xFFFFFFFF)
		if _, _, err := DecodeEntry(mut); !errors.Is(err, guard.ErrCorrupt) {
			t.Fatalf("huge length at %d: got %v, want ErrCorrupt", off, err)
		}
	}
}

func TestDiskPutGetAndMiss(t *testing.T) {
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss: got %v, want ErrNotFound", err)
	}
	if err := s.Put("fp-a", []byte("row-a")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("fp-a")
	if err != nil || string(got) != "row-a" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Overwrite is atomic last-writer-wins.
	if err := s.Put("fp-a", []byte("row-a2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("fp-a"); string(got) != "row-a2" {
		t.Fatalf("after overwrite Get = %q", got)
	}
}

func TestDiskGetQuarantinesBitFlip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fp-b", []byte("precious")); err != nil {
		t.Fatal(err)
	}
	path := entryFiles(t, s, 1)[0]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before := counter("rstore.corrupt_quarantined")
	if _, err := s.Get("fp-b"); !errors.Is(err, guard.ErrCorrupt) {
		t.Fatalf("Get on flipped entry: got %v, want ErrCorrupt", err)
	}
	if got := counter("rstore.corrupt_quarantined") - before; got != 1 {
		t.Fatalf("corrupt_quarantined delta = %d, want 1", got)
	}
	if q := quarantined(t, s); len(q) != 1 {
		t.Fatalf("quarantine holds %v, want one entry", q)
	}
	// The bad copy is gone: reads now miss instead of re-reading garbage.
	if _, err := s.Get("fp-b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after quarantine: got %v, want ErrNotFound", err)
	}
}

func TestDiskRecoveryScan(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("keep", []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("torn", []byte("will be truncated")); err != nil {
		t.Fatal(err)
	}
	// A SIGKILL between write and rename leaves a *.tmp orphan.
	good := entryFiles(t, s, 2)[0]
	if err := os.WriteFile(good+".tmp", []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Tear the second entry (truncate mid-payload).
	var torn string
	for _, f := range entryFiles(t, s, 2) {
		raw, _ := os.ReadFile(f)
		if _, p, err := DecodeEntry(raw); err == nil && string(p) == "will be truncated" {
			torn = f
		}
	}
	raw, _ := os.ReadFile(torn)
	if err := os.WriteFile(torn, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	// An entry filed under the wrong name (hard-linked / renamed garbage).
	misfiled, _ := EncodeEntry("some-other-fp", []byte("misfiled"))
	if err := os.WriteFile(filepath.Join(filepath.Dir(good), "00deadbeef"+entryExt), misfiled, 0o644); err != nil {
		t.Fatal(err)
	}
	// A file the store does not own is left alone.
	foreign := filepath.Join(filepath.Dir(good), "notes.txt")
	if err := os.WriteFile(foreign, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatalf("scan over damaged store must not fail: %v", err)
	}
	r := s2.Report()
	if r.Entries != 1 || r.Quarantined != 2 || r.TmpRemoved != 1 {
		t.Fatalf("scan report = %+v, want entries=1 quarantined=2 tmp_removed=1", r)
	}
	if got, err := s2.Get("keep"); err != nil || string(got) != "good" {
		t.Fatalf("surviving entry: %q, %v", got, err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign file must be untouched: %v", err)
	}
	if q := quarantined(t, s2); len(q) != 2 {
		t.Fatalf("quarantine holds %v, want two entries", q)
	}
}

// TestIsEntryName: the scan's name check accepts exactly entryName(fp):
// lowercase hex of the fingerprint's digest plus the entry extension.
func TestIsEntryName(t *testing.T) {
	name := entryName("fp")
	stem := strings.TrimSuffix(name, entryExt)
	for _, tc := range []struct {
		name string
		want bool
	}{
		{name, true},
		{strings.ToUpper(stem) + entryExt, false},
		{stem, false},
		{stem + ".tmp", false},
		{stem[:len(stem)-1] + entryExt, false},
		{entryName("fq"), false},
	} {
		if got := isEntryName(tc.name, "fp"); got != tc.want {
			t.Errorf("isEntryName(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestLegacyFanOutIgnored: an entry an older build filed under the
// two-level objects/<aa>/ fan-out is not the store's. The scan neither
// counts nor quarantines it, leaves its bytes as they are, and its
// fingerprint misses.
func TestLegacyFanOutIgnored(t *testing.T) {
	dir := t.TempDir()
	name := entryName("legacy-fp")
	sub := filepath.Join(dir, "objects", name[:2])
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeEntry("legacy-fp", []byte("old layout"))
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(sub, name)
	if err := os.WriteFile(legacy, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Report(); r.Entries != 0 || r.Quarantined != 0 {
		t.Fatalf("scan report = %+v, want the fan-out entry neither kept nor quarantined", r)
	}
	if _, err := s.Get("legacy-fp"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of the fan-out entry: got %v, want ErrNotFound", err)
	}
	if got, err := os.ReadFile(legacy); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("fan-out entry changed on disk (err %v)", err)
	}
}

// TestPutWritesFlat: every entry lands directly in objects/, which holds
// no subdirectory afterwards.
func TestPutWritesFlat(t *testing.T) {
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"fp-a", "fp-b", "fp-c"} {
		if err := s.Put(fp, []byte(fp)); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(s.odir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			t.Errorf("objects/ holds subdirectory %s", e.Name())
		}
	}
	entryFiles(t, s, 3)
}

func TestDiskScanFaultInjection(t *testing.T) {
	defer guard.DisarmAll()
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fp", []byte("x")); err != nil {
		t.Fatal(err)
	}
	defer guard.Arm("rstore.scan", guard.Fault{Err: errors.New("injected scan failure")})()
	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatalf("scan with per-entry fault must still open: %v", err)
	}
	if r := s2.Report(); r.Quarantined != 1 || r.Entries != 0 {
		t.Fatalf("scan report = %+v, want the unreadable entry quarantined", r)
	}
}

func TestPutFaultInjection(t *testing.T) {
	defer guard.DisarmAll()
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer guard.Arm("rstore.write", guard.Fault{Err: syscall.ENOSPC, Count: 1})()
	if err := s.Put("fp", []byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put under ENOSPC: got %v", err)
	}
	entryFiles(t, s, 0)
	// The next write (disk recovered) succeeds.
	if err := s.Put("fp", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestReadFaultDegradesLookup(t *testing.T) {
	defer guard.DisarmAll()
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fp", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c := NewCache(s)
	defer guard.Arm("rstore.read", guard.Fault{Err: guard.Unavailable("injected io error"), Count: 1})()
	before := counter("rstore.degraded")
	if c.Lookup(context.Background(), "fp", func([]byte) error { return nil }) {
		t.Fatal("Lookup must degrade under a read fault")
	}
	if got := counter("rstore.degraded") - before; got != 1 {
		t.Fatalf("degraded delta = %d, want 1", got)
	}
	// Fault cleared: the entry is intact and the lookup hits.
	if !c.Lookup(context.Background(), "fp", func([]byte) error { return nil }) {
		t.Fatal("Lookup must hit once the fault clears")
	}
}

func TestLookupRejectedPayloadQuarantined(t *testing.T) {
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fp", []byte("checksum-valid but semantically bad")); err != nil {
		t.Fatal(err)
	}
	c := NewCache(s)
	before := counter("rstore.corrupt_quarantined")
	ok := c.Lookup(context.Background(), "fp", func([]byte) error {
		return guard.Corrupt("verify says no")
	})
	if ok {
		t.Fatal("Lookup must fail when verify rejects")
	}
	if got := counter("rstore.corrupt_quarantined") - before; got != 1 {
		t.Fatalf("corrupt_quarantined delta = %d, want 1", got)
	}
	if _, err := s.Get("fp"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rejected entry must be quarantined: got %v", err)
	}
}

// TestConcurrentPut: writers of one fingerprint never share staging bytes.
// Each Put stages in a tmp file of its own, so every call succeeds, the
// entry left behind is one writer's complete payload, and no tmp file is
// left over.
func TestConcurrentPut(t *testing.T) {
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	payloads := map[string]bool{}
	for i := 0; i < writers; i++ {
		payloads[string(bytes.Repeat([]byte{'a' + byte(i)}, 4096+i))] = true
	}
	var wg sync.WaitGroup
	for p := range payloads {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			if err := s.Put("fp", []byte(p)); err != nil {
				t.Error(err)
			}
		}(p)
	}
	wg.Wait()
	got, err := s.Get("fp")
	if err != nil {
		t.Fatal(err)
	}
	if !payloads[string(got)] {
		t.Fatalf("Get returned %d bytes that no writer put", len(got))
	}
	entryFiles(t, s, 1)
	tmps, err := filepath.Glob(filepath.Join(s.odir, "*"+tmpSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("tmp files left behind: %v", tmps)
	}
}

// reopenWith writes each (fingerprint, payload) pair into a fresh store and
// reopens it, so the returned store's scan has verified (and held) them.
func reopenWith(t *testing.T, entries map[string]string) *DiskStore {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for fp, p := range entries {
		if err := s.Put(fp, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s2
}

// TestHeldEntryServedAfterBitFlip: an entry the open scan verified is
// served from the scan's bytes, so damage done to its file after open
// does not reach the first Get; the next open quarantines the file.
func TestHeldEntryServedAfterBitFlip(t *testing.T) {
	s := reopenWith(t, map[string]string{"fp": "verified at open"})
	path := entryFiles(t, s, 1)[0]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("fp"); err != nil || string(got) != "verified at open" {
		t.Fatalf("held Get = %q, %v", got, err)
	}
	s2, err := OpenDisk(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	if r := s2.Report(); r.Entries != 0 || r.Quarantined != 1 {
		t.Fatalf("scan report = %+v, want the flipped entry quarantined", r)
	}
}

// TestSecondGetReadsDisk: the held copy serves one Get only; the next Get
// of the fingerprint reads the entry file.
func TestSecondGetReadsDisk(t *testing.T) {
	s := reopenWith(t, map[string]string{"fp": "once"})
	if got, err := s.Get("fp"); err != nil || string(got) != "once" {
		t.Fatalf("first Get = %q, %v", got, err)
	}
	if err := os.Remove(entryFiles(t, s, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("fp"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Get after the file was removed: got %v, want ErrNotFound", err)
	}
}

// TestPutReplacesHeldEntry: a Put after open over a scanned fingerprint
// drops the held copy, so Get returns the new bytes.
func TestPutReplacesHeldEntry(t *testing.T) {
	s := reopenWith(t, map[string]string{"fp": "old"})
	if err := s.Put("fp", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("fp"); err != nil || string(got) != "new" {
		t.Fatalf("Get after Put = %q, %v, want \"new\"", got, err)
	}
}

// TestConcurrentGetTakesHeldOnce: of several concurrent Gets of one
// fingerprint exactly one takes the held copy, the rest read the disk,
// and all return the same bytes.
func TestConcurrentGetTakesHeldOnce(t *testing.T) {
	const want = "shared payload"
	s := reopenWith(t, map[string]string{"fp": want})
	heldp := &s.held["fp"][0]
	const readers = 8
	got := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := s.Get("fp")
			if err != nil {
				t.Error(err)
			}
			got[i] = b
		}(i)
	}
	wg.Wait()
	took := 0
	for _, b := range got {
		if string(b) != want {
			t.Fatalf("Get returned %q, want %q", b, want)
		}
		if &b[0] == heldp {
			took++
		}
	}
	if took != 1 {
		t.Fatalf("%d Gets took the held copy, want 1", took)
	}
}

// TestHeldCapServesEveryEntry: with the held-bytes cap tightened to one
// entry, the scan holds one of two entries and both are served.
func TestHeldCapServesEveryEntry(t *testing.T) {
	b, err := EncodeEntry("fp-a", []byte("payload-a"))
	if err != nil {
		t.Fatal(err)
	}
	defer func(v int64) { heldMaxBytes = v }(heldMaxBytes)
	heldMaxBytes = int64(len(b))
	s := reopenWith(t, map[string]string{"fp-a": "payload-a", "fp-b": "payload-b"})
	if n := len(s.held); n != 1 {
		t.Fatalf("scan held %d entries, want 1", n)
	}
	for _, fp := range []string{"fp-a", "fp-b"} {
		if got, err := s.Get(fp); err != nil || string(got) != "payload-"+fp[3:] {
			t.Fatalf("Get(%s) = %q, %v", fp, got, err)
		}
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	if c.Lookup(context.Background(), "fp", func([]byte) error { return nil }) {
		t.Fatal("nil cache must miss")
	}
	c.Put("fp", []byte("dropped"))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if NewCache(nil) != nil {
		t.Fatal("NewCache(nil) must be nil")
	}
}
