// Package rstore is the persistent, content-addressed result store: every
// NeuroMeter evaluation is a pure function of its candidate fingerprint,
// so a verified byte-for-byte copy of a previous result can stand in for
// re-running the models — across studies and across processes.
//
// The contract that makes the cache safe to trust is verified degradation:
// a store may make an evaluation cheaper, but no store fault — torn write,
// flipped bit, foreign format version, full disk, unreadable mount — may
// ever change a result, fail a study, or crash the process. Every entry's
// envelope (checksum, version, embedded-fingerprint match) is verified
// once per open, by the scan that hands the verified bytes to the entry's
// first read, or at read time when the entry is not held from the scan;
// every read then runs the caller's own payload validation. Anything that
// fails verification is quarantined and the caller silently falls back to
// evaluating. A study
// run against a cold store, a warm store, a poisoned store, or no store at
// all produces byte-identical output.
//
// Writers never coordinate: each write stages its bytes in a temp file of
// its own and renames it into place, so concurrent writers of one
// fingerprint — in one process or several — each leave a complete entry,
// and the last rename wins.
package rstore

import (
	"context"
	"errors"
	"log/slog"

	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// ErrNotFound reports a fingerprint with no stored entry: the one store
// outcome that is a plain miss rather than a degradation.
var ErrNotFound = errors.New("rstore: not found")

// Counters for the -metrics snapshot. hits/misses tell the cache story;
// corrupt_quarantined and degraded tell the robustness story — the
// store byte-identity tests assert on both.
var (
	mHits          = obs.NewCounter("rstore.hits")
	mMisses        = obs.NewCounter("rstore.misses")
	mQuarantined   = obs.NewCounter("rstore.corrupt_quarantined")
	mDegraded      = obs.NewCounter("rstore.degraded")
	mWriteFailures = obs.NewCounter("rstore.write_failures")
	mTmpRemoved    = obs.NewCounter("rstore.tmp_removed")
	mQEvicted      = obs.NewCounter("rstore.quarantine_evicted")
)

// Cache is the process-facing face of a DiskStore: read-path verification,
// degradation accounting and best-effort writes. A nil *Cache is valid and
// behaves as "no store": lookups miss and writes are dropped — so call
// sites wire it through unconditionally.
type Cache struct {
	store *DiskStore
}

// NewCache wraps a disk store. A nil store yields a nil Cache.
func NewCache(s *DiskStore) *Cache {
	if s == nil {
		return nil
	}
	return &Cache{store: s}
}

// Close closes the backend.
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	return c.store.Close()
}

// Lookup fetches and fully verifies the entry for fp, reporting whether it
// can be trusted. verify receives the stored payload and must reject
// anything it would not have produced itself (undeserializable bytes,
// identity mismatch, non-finite metrics); it runs after the envelope
// checks, so by the time it sees bytes their checksum and embedded
// fingerprint already matched. Lookup never fails: every non-hit outcome —
// miss, corrupt entry, unreadable backend, rejected payload — returns
// false and the caller evaluates. Only a plain miss counts as a miss;
// everything else counts (and traces) as a degradation.
func (c *Cache) Lookup(ctx context.Context, fp string, verify func(payload []byte) error) bool {
	if c == nil {
		return false
	}
	payload, err := c.store.Get(fp)
	switch {
	case err == nil:
	case errors.Is(err, ErrNotFound):
		mMisses.Inc()
		return false
	default:
		c.degrade(ctx, err)
		return false
	}
	if err := verify(payload); err != nil {
		c.store.quarantine(fp, err)
		c.degrade(ctx, err)
		return false
	}
	mHits.Inc()
	obs.Event(ctx, "rstore.hit")
	return true
}

// degrade records a fallback-to-evaluation for any reason other than a
// plain miss.
func (c *Cache) degrade(ctx context.Context, err error) {
	mDegraded.Inc()
	obs.Event(ctx, "rstore.degraded", obs.String("kind", guard.Kind(err)))
	slog.Debug("rstore: degraded to evaluation", "kind", guard.Kind(err), "err", err)
}

// Put stores payload under fp, best effort: a write failure (ENOSPC, bad
// mount) is counted and logged but never returned, because persistence is
// an optimization, not part of the result.
func (c *Cache) Put(fp string, payload []byte) {
	if c == nil {
		return
	}
	if err := c.store.Put(fp, payload); err != nil {
		mWriteFailures.Inc()
		slog.Warn("rstore: result not persisted", "kind", guard.Kind(err), "err", err)
	}
}
