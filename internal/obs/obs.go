package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// active is the process-wide tracer; nil means tracing is disabled and
// Start degrades to a single atomic load.
var active atomic.Pointer[Tracer]

// detachedEver flips true on the first NewRequestTracer and never resets.
// While false, no context in the process can carry a live span when the
// global tracer is off, so the disabled Start path may skip the context
// walk — keeping the per-layer hot path at two atomic loads.
var detachedEver atomic.Bool

// StartTracing installs a fresh process-wide tracer and returns it. Spans
// started before StartTracing (or after StopTracing) are no-ops.
func StartTracing() *Tracer {
	t := newTracer()
	active.Store(t)
	return t
}

// StopTracing disables tracing and returns the tracer that was active (nil
// if tracing was off). The returned tracer still holds every finished span
// for export.
func StopTracing() *Tracer {
	return active.Swap(nil)
}

// TracingEnabled reports whether a tracer is installed.
func TracingEnabled() bool { return active.Load() != nil }

// Tracer collects finished spans. All methods are safe for concurrent use.
type Tracer struct {
	now    func() time.Time // injectable clock (tests)
	epoch  time.Time
	lastID atomic.Uint64 // span id allocator; 0 means "no span"

	mu     sync.Mutex
	events []spanEvent
	tracks map[uint64]bool // in-use Chrome-trace track (tid) ids
}

// spanEvent is one finished span (or instant event), recorded at End.
type spanEvent struct {
	name    string
	path    string // slash-joined ancestry, e.g. "dse.run/dse.enumerate"
	id      uint64 // tracer-scoped span id (W3C parent-id material)
	parent  uint64 // id of the parent span; 0 for roots
	track   uint64
	startNS int64 // relative to the tracer epoch
	durNS   int64
	instant bool // zero-duration point event (retry fired, breaker opened)
	attrs   []Attr
}

func newTracer() *Tracer {
	return &Tracer{now: time.Now, epoch: time.Now(), tracks: map[uint64]bool{}}
}

func (t *Tracer) nextID() uint64 { return t.lastID.Add(1) }

func (t *Tracer) clock() time.Time { return t.now() }

func (t *Tracer) record(ev spanEvent) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// acquireTrack hands a root span the lowest free track id, so sequential
// root spans share track 1 while concurrent roots get their own rows in
// the trace viewer.
func (t *Tracer) acquireTrack() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := uint64(1); ; id++ {
		if !t.tracks[id] {
			t.tracks[id] = true
			return id
		}
	}
}

func (t *Tracer) releaseTrack(id uint64) {
	t.mu.Lock()
	delete(t.tracks, id)
	t.mu.Unlock()
}

// Attr is a span attribute. Build one with String, or use the span's typed
// setters (SetStr, SetInt, SetFloat); they avoid interface boxing on
// disabled spans.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Span is one timed region. A nil *Span is valid and every method on it is
// a no-op, so callers never need to branch on whether tracing is enabled.
// A span's setters are not safe for concurrent use with its End.
type Span struct {
	t      *Tracer
	parent *Span
	id     uint64
	name   string
	path   string
	track  uint64
	root   bool
	start  time.Time
	ended  bool
	attrs  []Attr
}

type ctxKey struct{}

// FromContext returns the span stored in ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Start begins a span named name as a child of the span in ctx (a root
// span if none) and returns a context carrying the new span. A child always
// records into its parent's tracer — that is what lets a request-scoped
// tracer (see NewRequestTracer) capture a whole subtree even when the
// process-wide tracer is off. With tracing fully disabled (no parent span,
// no active tracer) it returns ctx unchanged and a nil span at zero
// allocations.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t := active.Load()
	if t == nil && !detachedEver.Load() {
		return ctx, nil // tracing off, no request tracer in the process
	}
	if parent := FromContext(ctx); parent != nil {
		return parent.t.start(ctx, parent, name, attrs)
	}
	if t == nil {
		return ctx, nil
	}
	return t.start(ctx, nil, name, attrs)
}

// StartRoot begins a root span recorded in t regardless of the process-wide
// tracer, returning a context that routes every nested Start into t. This is
// the entry point for request-scoped capture: a worker wraps one request's
// work in StartRoot and exports the resulting subtree with WireSpans.
func (t *Tracer) StartRoot(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	return t.start(ctx, nil, name, attrs)
}

func (t *Tracer) start(ctx context.Context, parent *Span, name string, attrs []Attr) (context.Context, *Span) {
	s := &Span{t: t, id: t.nextID(), name: name, start: t.clock()}
	if len(attrs) > 0 {
		s.attrs = attrs
	}
	if parent != nil {
		s.parent = parent
		s.path = parent.path + "/" + name
		s.track = parent.track
	} else {
		s.path = name
		s.track = t.acquireTrack()
		s.root = true
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// Event records a zero-duration instant event under the span in ctx —
// a point in time worth seeing on the trace without a duration of its own
// (a retry fired, a hedge launched, a breaker opened). Without a span in
// ctx it is a no-op at zero allocations, like a disabled Start.
func Event(ctx context.Context, name string, attrs ...Attr) {
	sp := FromContext(ctx)
	if sp == nil {
		return
	}
	t := sp.t
	t.record(spanEvent{
		name:    name,
		path:    sp.path + "/" + name,
		id:      t.nextID(),
		parent:  sp.id,
		track:   sp.track,
		startNS: t.clock().Sub(t.epoch).Nanoseconds(),
		instant: true,
		attrs:   attrs,
	})
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Path returns the slash-joined ancestry path ("" on nil).
func (s *Span) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// SetStr attaches a string attribute. Nil-safe.
func (s *Span) SetStr(k, v string) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: k, Value: v})
	}
}

// SetInt attaches an integer attribute. Nil-safe.
func (s *Span) SetInt(k string, v int64) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: k, Value: v})
	}
}

// SetFloat attaches a float attribute. Nil-safe.
func (s *Span) SetFloat(k string, v float64) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: k, Value: v})
	}
}

// End finishes the span and records it in its tracer. Nil-safe and
// idempotent; ending a span after StopTracing still records into the
// (now detached) tracer so the export stays complete.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	end := s.t.clock()
	var parentID uint64
	if s.parent != nil {
		parentID = s.parent.id
	}
	s.t.record(spanEvent{
		name:    s.name,
		path:    s.path,
		id:      s.id,
		parent:  parentID,
		track:   s.track,
		startNS: s.start.Sub(s.t.epoch).Nanoseconds(),
		durNS:   end.Sub(s.start).Nanoseconds(),
		attrs:   s.attrs,
	})
	if s.root {
		s.t.releaseTrack(s.track)
	}
}
