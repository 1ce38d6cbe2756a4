// Package rstore is the persistent, content-addressed result store: every
// NeuroMeter evaluation is a pure function of its candidate fingerprint,
// so a verified byte-for-byte copy of a previous result can stand in for
// re-running the models — across studies and across processes.
//
// The contract that makes the cache safe to trust is verified degradation:
// a store may make an evaluation cheaper, but no store fault — torn write,
// flipped bit, foreign format version, full disk, unreadable mount — may
// ever change a result, fail a study, or crash the process. Every read is
// re-verified (envelope checksum, embedded-fingerprint match, and the
// caller's own payload validation); anything that fails verification is
// quarantined and the caller silently falls back to evaluating. A study
// run against a cold store, a warm store, a poisoned store, or no store at
// all produces byte-identical output.
//
// Concurrency within a process is deduplicated by single-flight: when many
// studies want the same missing fingerprint, one evaluates and the rest
// wait for its bytes.
package rstore

import (
	"context"
	"errors"
	"log/slog"
	"sync"

	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// ErrNotFound reports a fingerprint with no stored entry: the one store
// outcome that is a plain miss rather than a degradation.
var ErrNotFound = errors.New("rstore: not found")

// Store is the pluggable persistence backend. Implementations must be safe
// for concurrent use and must honor the degradation contract: Get returns
// ErrNotFound for absent entries and a guard-classified error (quarantining
// the bytes when they are corrupt) for everything else; Put either persists
// durably or returns an error — a partial entry must never become visible.
type Store interface {
	// Get returns the verified payload stored under fp, ErrNotFound when
	// there is none, or a guard-classified error when the entry exists
	// but cannot be trusted (in which case it has been quarantined).
	Get(fp string) ([]byte, error)
	// Put durably stores payload under fp.
	Put(fp string, payload []byte) error
	// Quarantine moves the entry for fp aside because a higher layer's
	// verification rejected its (checksum-valid) payload.
	Quarantine(fp string, reason error)
	// Close releases backend resources.
	Close() error
}

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
	mDeduped       = obs.NewCounter("rstore.singleflight_deduped")
	mQEvicted      = obs.NewCounter("rstore.quarantine_evicted")
)

// Cache is the process-facing face of a Store: read-path verification,
// degradation accounting, and in-process single-flight. A nil *Cache is
// valid and behaves as "no store": lookups miss, computes run, writes are
// dropped — so call sites wire it through unconditionally.
type Cache struct {
	store Store

	mu     sync.Mutex
	flight map[string]*flightCall
}

// flightCall is one in-progress computation other callers can wait on.
type flightCall struct {
	done    chan struct{}
	payload []byte
	err     error
}

// NewCache wraps a backend store. A nil store yields a nil Cache.
func NewCache(s Store) *Cache {
	if s == nil {
		return nil
	}
	return &Cache{store: s, flight: make(map[string]*flightCall)}
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
		c.store.Quarantine(fp, err)
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

// Compute runs fn under single-flight for fp: the first caller (the
// leader) computes, and concurrent callers for the same fingerprint wait
// and share the leader's bytes instead of re-evaluating. On success the
// leader best-effort persists the payload — a write failure (ENOSPC, bad
// mount) is counted and logged but never surfaces, because persistence is
// an optimization, not part of the result.
//
// The return distinguishes who did the work: shared is false for the
// leader (payload is exactly what fn returned — callers that captured
// richer state in fn's closure should prefer that) and true for waiters
// (payload is the leader's bytes, which the waiter must verify-decode
// like any other cached read). A compute error propagates to every caller
// in the flight; waiters treat it as their own evaluation failing.
//
// A waiter whose ctx ends first stops waiting and returns the classified
// context error, exactly as if its own evaluation had timed out.
func (c *Cache) Compute(ctx context.Context, fp string, fn func() ([]byte, error)) (payload []byte, shared bool, err error) {
	if c == nil {
		p, err := fn()
		return p, false, err
	}
	c.mu.Lock()
	if f, ok := c.flight[fp]; ok {
		c.mu.Unlock()
		mDeduped.Inc()
		select {
		case <-f.done:
			return f.payload, true, f.err
		case <-ctx.Done():
			return nil, false, guard.CtxErr(ctx)
		}
	}
	f := &flightCall{done: make(chan struct{})}
	c.flight[fp] = f
	c.mu.Unlock()

	f.payload, f.err = fn()
	// A nil payload with a nil error means "nothing to persist" (the
	// caller kept its result out-of-band); don't write an empty entry.
	// A failed write is counted and logged, never returned: the result
	// already exists — only its durability is at stake.
	if f.err == nil && f.payload != nil {
		if err := c.store.Put(fp, f.payload); err != nil {
			mWriteFailures.Inc()
			slog.Warn("rstore: result not persisted", "kind", guard.Kind(err), "err", err)
		}
	}
	c.mu.Lock()
	delete(c.flight, fp)
	c.mu.Unlock()
	close(f.done)
	return f.payload, false, f.err
}

// ReportBad quarantines the stored entry for fp after a caller's own
// verification rejected payload bytes obtained outside Lookup (for
// example, a single-flight waiter that failed to decode the leader's
// bytes), and counts the degradation.
func (c *Cache) ReportBad(ctx context.Context, fp string, reason error) {
	if c == nil {
		return
	}
	c.store.Quarantine(fp, reason)
	c.degrade(ctx, reason)
}
