package rstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"neurometer/internal/guard"
)

// DiskStore is the disk backend: one file per result in one flat
// content-addressed directory, so the open scan lists it with one read,
//
//	<dir>/objects/<sha256(fingerprint)>.res
//	<dir>/objects/*.tmp                    (staged writes, before rename)
//	<dir>/quarantine/                      (corrupt entries, moved aside)
//
// Subdirectories of objects/ are not the store's: entries an older build
// filed under objects/<aa>/ stay on disk unread, so such a store reads as
// empty once and recomputes each row.
//
// Writes are crash-safe (tmp file + fsync + rename + parent-dir fsync): a
// SIGKILL at any instant leaves either the previous entry or a *.tmp file
// the next startup scan removes — never a half-written entry served as a
// result. Every payload is verified (checksum, version, embedded
// fingerprint) before a byte of it is returned: once, by the open scan,
// which keeps the entry's verified bytes for its first Get, or by Get
// itself when the entry is not held from the scan. Anything that fails
// moves to quarantine/ instead of being deleted, so an operator can
// inspect what corrupted and the store can never serve the same bad bytes
// twice. All methods are safe for concurrent use — distinct fingerprints
// touch distinct files, and each write stages its bytes in a tmp file of
// its own, so same-fingerprint writers race only on the atomic rename,
// whose last writer wins with a complete entry either way.
type DiskStore struct {
	dir    string
	odir   string // <dir>/objects
	qdir   string // <dir>/quarantine
	report ScanReport

	// held maps a fingerprint to the payload the open scan verified for
	// it. The first Get of the fingerprint takes it out; Put, quarantine
	// and Close drop it. hmu guards the map.
	hmu  sync.Mutex
	held map[string][]byte

	// qmu serializes quarantine-cap enforcement so concurrent quarantines
	// can't double-evict (and double-count) the same victim.
	qmu sync.Mutex
}

// Quarantine growth bounds. Quarantined entries are kept for inspection,
// not forever: a store fed a stream of corrupt entries (bad disk, hostile
// writer) must not grow quarantine/ without bound. When either cap is
// exceeded the oldest entries rotate out first and rstore.quarantine_evicted
// counts each removal. Variables (not constants) so the flood regression
// test can tighten them; production uses the defaults.
var (
	quarantineMaxEntries = 256
	quarantineMaxBytes   = int64(64 << 20)
)

// heldMaxBytes bounds the entry bytes the open scan keeps for first Gets:
// a long-lived store (neurometerd -result-store) holds at most this much,
// about 23,000 Fig. 10 entries. Entries past it are verified but not
// kept, and their Gets read the disk. A variable so tests can tighten it.
var heldMaxBytes = int64(8 << 20)

// QuarantineLimits reports the active quarantine directory caps (max
// entry count, max total bytes). Invariant checks use it to assert a
// damaged store's quarantine stayed within bounds.
func QuarantineLimits() (entries int, bytes int64) {
	return quarantineMaxEntries, quarantineMaxBytes
}

// ScanReport summarizes the startup recovery scan.
type ScanReport struct {
	// Entries is the number of verified entries the scan kept.
	Entries int
	// Quarantined counts entries moved to quarantine/ (torn, corrupt,
	// foreign version, or filed under the wrong name).
	Quarantined int
	// TmpRemoved counts orphaned *.tmp files deleted (a crash between
	// write and rename leaves exactly one).
	TmpRemoved int
}

const (
	entryExt  = ".res"
	tmpSuffix = ".tmp"
)

// OpenDisk opens (creating if necessary) the store rooted at dir and runs
// the recovery scan: orphaned *.tmp files are removed and every entry is
// verified, with failures quarantined rather than trusted or deleted. A
// store directory full of garbage therefore opens successfully and behaves
// as empty — the durability contract is that a damaged store degrades to
// recomputation, never to wrong results and never to a crash.
func OpenDisk(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, guard.Invalid("rstore: empty store directory")
	}
	s := &DiskStore{
		dir:  dir,
		odir: filepath.Join(dir, "objects"),
		qdir: filepath.Join(dir, "quarantine"),
	}
	for _, d := range []string{s.dir, s.odir, s.qdir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("rstore: %w", err)
		}
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	slog.Info("rstore: opened disk store", "dir", dir,
		"entries", s.report.Entries, "quarantined", s.report.Quarantined,
		"tmp_removed", s.report.TmpRemoved)
	return s, nil
}

// Report returns the startup scan summary.
func (s *DiskStore) Report() ScanReport { return s.report }

// entryName maps a fingerprint to its entry file's name in objects/.
func entryName(fp string) string {
	sum := sha256.Sum256([]byte(fp))
	return hex.EncodeToString(sum[:]) + entryExt
}

// isEntryName reports whether name is entryName(fp). The digest is
// hex-encoded into a fixed buffer, so the open scan builds no name string
// per entry; like entryName, it accepts lowercase hex only.
func isEntryName(name, fp string) bool {
	sum := sha256.Sum256([]byte(fp))
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	stem, ok := strings.CutSuffix(name, entryExt)
	return ok && stem == string(h[:])
}

// path maps a fingerprint to its entry file.
func (s *DiskStore) path(fp string) string {
	return filepath.Join(s.odir, entryName(fp))
}

// minEntryBytes is the size of the smallest entry EncodeEntry writes (a
// one-byte fingerprint, no payload), so the scan never holds more than
// heldMaxBytes/minEntryBytes entries.
const minEntryBytes = entryHeader + 1 + entryChecksum

// scan lists objects/ once at open: *.tmp droppings are removed, every
// *.res entry is decoded and verified, and failures are quarantined.
// Verified payloads are held for their first Get until heldMaxBytes of
// entries are held. Files the store did not write (unknown extensions)
// and subdirectories are left untouched. guard.Inject("rstore.scan")
// fires per entry visit, in the listing's lexical order, so tests can
// drive the unreadable-entry path deterministically.
func (s *DiskStore) scan() error {
	ents, err := os.ReadDir(s.odir)
	if err != nil {
		return fmt.Errorf("rstore: scan: %w", err)
	}
	n := 0
	for _, d := range ents {
		if !d.IsDir() && filepath.Ext(d.Name()) == entryExt {
			n++
		}
	}
	s.held = make(map[string][]byte, min(n, int(heldMaxBytes/minEntryBytes)))
	var heldBytes int64
	for _, d := range ents {
		name := d.Name()
		if d.IsDir() {
			continue // not ours: an older build's objects/<aa>/ fan-out
		}
		path := filepath.Join(s.odir, name)
		if strings.HasSuffix(name, tmpSuffix) {
			if rerr := os.Remove(path); rerr == nil {
				s.report.TmpRemoved++
				mTmpRemoved.Inc()
			}
			continue
		}
		if filepath.Ext(name) != entryExt {
			continue // not ours; leave it alone
		}
		verr := guard.Inject(nil, "rstore.scan")
		var b, payload []byte
		var fp string
		if verr == nil {
			b, verr = os.ReadFile(path)
		}
		if verr == nil {
			fp, payload, verr = DecodeEntry(b)
		}
		if verr == nil && !isEntryName(name, fp) {
			verr = guard.Corrupt("rstore: entry %s embeds fingerprint for %s", name, entryName(fp))
		}
		if verr != nil {
			s.quarantineFile(path, verr)
			s.report.Quarantined++
			mQuarantined.Inc()
			continue
		}
		s.report.Entries++
		if heldBytes+int64(len(b)) <= heldMaxBytes {
			heldBytes += int64(len(b))
			s.held[fp] = payload
		}
	}
	return nil
}

// Get returns the verified payload for fp. The first Get of an entry the
// open scan verified and held returns those bytes with no file access;
// any other Get reads and verifies the entry file. A missing entry is
// ErrNotFound; a present-but-invalid entry is quarantined and reported as
// guard.ErrCorrupt; read failures classify as guard.ErrUnavailable. Every
// non-nil error means "compute the result yourself".
func (s *DiskStore) Get(fp string) ([]byte, error) {
	if err := guard.Inject(nil, "rstore.read"); err != nil {
		return nil, fmt.Errorf("rstore: read %s: %w", shortFP(fp), err)
	}
	if payload, ok := s.take(fp); ok {
		return payload, nil
	}
	path := s.path(fp)
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, guard.Unavailable("rstore: read %s: %v", shortFP(fp), err)
	}
	stored, payload, err := DecodeEntry(b)
	if err == nil && stored != fp {
		err = guard.Corrupt("rstore: entry for %s holds a result for a different fingerprint", shortFP(fp))
	}
	if err != nil {
		s.quarantineFile(path, err)
		mQuarantined.Inc()
		return nil, err
	}
	return payload, nil
}

// take removes and returns the payload held for fp, if any.
func (s *DiskStore) take(fp string) ([]byte, bool) {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	payload, ok := s.held[fp]
	if ok {
		delete(s.held, fp)
	}
	return payload, ok
}

// Put durably stores payload under fp: encode, write to a tmp file of this
// call's own, fsync the file, rename over the final name, fsync the
// directory. A failure at any step removes the tmp file and returns an
// error the caller treats as "result not persisted" — never as a failed
// evaluation.
// guard.Inject("rstore.write") is the ENOSPC/IO-fault hook.
func (s *DiskStore) Put(fp string, payload []byte) error {
	s.take(fp) // a held copy would outlive the entry this replaces
	if err := guard.Inject(nil, "rstore.write"); err != nil {
		return fmt.Errorf("rstore: write %s: %w", shortFP(fp), err)
	}
	b, err := EncodeEntry(fp, payload)
	if err != nil {
		return err
	}
	name := entryName(fp)
	tmp, err := writeTempSync(s.odir, name+".*"+tmpSuffix, b)
	if err != nil {
		return guard.Unavailable("rstore: write %s: %v", shortFP(fp), err)
	}
	if err := os.Rename(tmp, filepath.Join(s.odir, name)); err != nil {
		os.Remove(tmp)
		return guard.Unavailable("rstore: write %s: %v", shortFP(fp), err)
	}
	if err := syncDir(s.odir); err != nil {
		return guard.Unavailable("rstore: write %s: %v", shortFP(fp), err)
	}
	return nil
}

// quarantine moves the entry for fp (if any) into quarantine/. Lookup uses
// it when a checksum-valid entry fails a higher layer's verification —
// undeserializable payload, non-finite metrics, identity mismatch — so the
// bad bytes are preserved for inspection but never served again.
func (s *DiskStore) quarantine(fp string, reason error) {
	s.take(fp)
	path := s.path(fp)
	if _, err := os.Stat(path); err != nil {
		return // already gone (raced with another quarantine)
	}
	s.quarantineFile(path, reason)
	mQuarantined.Inc()
}

// quarantineFile moves one file into quarantine/, suffixing the name if a
// previous incarnation is already there. Move failures degrade to removal,
// and removal failures are logged — a file we can neither move nor delete
// must at least never be trusted again, which Get's verification ensures.
func (s *DiskStore) quarantineFile(path string, reason error) {
	dst := filepath.Join(s.qdir, filepath.Base(path))
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); errors.Is(err, fs.ErrNotExist) {
			break
		}
		dst = filepath.Join(s.qdir, fmt.Sprintf("%s.%d", filepath.Base(path), i))
	}
	if err := os.Rename(path, dst); err != nil {
		if rerr := os.Remove(path); rerr != nil {
			slog.Warn("rstore: could not quarantine or remove corrupt entry",
				"path", path, "reason", reason, "err", err)
			return
		}
	}
	slog.Warn("rstore: quarantined corrupt entry",
		"entry", filepath.Base(path), "kind", guard.Kind(reason), "reason", reason)
	s.enforceQuarantineCap()
}

// enforceQuarantineCap rotates quarantine/ down to the configured bounds,
// oldest entry first (mtime, then name for same-second ties). Called
// after every quarantine move; errors degrade silently — cap enforcement
// is best-effort hygiene and must never turn a successful quarantine into
// a failure.
func (s *DiskStore) enforceQuarantineCap() {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	ents, err := os.ReadDir(s.qdir)
	if err != nil {
		return
	}
	type qfile struct {
		name string
		size int64
		mod  int64 // unix nanos
	}
	files := make([]qfile, 0, len(ents))
	var total int64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, qfile{e.Name(), info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	}
	if len(files) <= quarantineMaxEntries && total <= quarantineMaxBytes {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].name < files[j].name
	})
	for i := 0; i < len(files) && (len(files)-i > quarantineMaxEntries || total > quarantineMaxBytes); i++ {
		if err := os.Remove(filepath.Join(s.qdir, files[i].name)); err != nil {
			continue
		}
		total -= files[i].size
		mQEvicted.Inc()
		slog.Warn("rstore: rotated oldest quarantined entry out (quarantine cap)",
			"entry", files[i].name)
	}
}

// Close releases the store: it drops the payloads held from the open scan.
// The disk backend holds no open handles, and a Get after Close reads the
// disk.
func (s *DiskStore) Close() error {
	s.hmu.Lock()
	s.held = nil
	s.hmu.Unlock()
	return nil
}

// shortFP abbreviates a fingerprint for log and error messages.
func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12] + "…"
	}
	return fp
}

// writeTempSync writes b to a new file in dir, named by os.CreateTemp's
// pattern, and fsyncs it before closing, so the rename that follows can
// only expose fully durable bytes. It returns the file's path; on failure
// the file is removed.
func writeTempSync(dir, pattern string, b []byte) (string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	err = f.Chmod(0o644)
	if err == nil {
		_, err = f.Write(b)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// syncDir fsyncs a directory so a just-renamed entry's directory record is
// durable. Filesystems that refuse directory fsync (EINVAL on some network
// mounts) are tolerated: the rename stays atomic, only durability-after-
// crash degrades to the mount's own policy.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}
