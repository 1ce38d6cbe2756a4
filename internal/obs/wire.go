package obs

// Request-scoped tracing. A request tracer (NewRequestTracer + StartRoot)
// captures one unit of work's span subtree independently of the
// process-wide tracer, and WireSpans exports it as structured records.

// NewRequestTracer returns a detached tracer for capturing one request's
// span subtree. It is never installed process-wide: the caller roots the
// request's work with StartRoot, and every nested Start joins the subtree
// through the context's parent span. Export the capture with WireSpans.
func NewRequestTracer() *Tracer {
	detachedEver.Store(true)
	return newTracer()
}

// WireAttr is one serialized span attribute. Values round-trip through
// JSON, so integer attributes come back as float64 — fine for trace args,
// which are display-only.
type WireAttr struct {
	K string `json:"k"`
	V any    `json:"v"`
}

// WireSpan is the serialized form of one recorded span or instant event.
// StartNS is relative to the tracer epoch (for a request tracer,
// effectively the subtree root's start).
type WireSpan struct {
	ID      uint64     `json:"id"`
	Parent  uint64     `json:"parent,omitempty"` // 0 = subtree root
	Name    string     `json:"name"`
	Path    string     `json:"path"`
	StartNS int64      `json:"start_ns"`
	DurNS   int64      `json:"dur_ns,omitempty"`
	Instant bool       `json:"instant,omitempty"`
	Attrs   []WireAttr `json:"attrs,omitempty"`
}

// WireSpans exports every recorded span and instant event in start-time
// order. The result is also the test- and tooling-facing structured view of
// a trace (paths and parent links, which the Chrome export conveys only by
// time containment).
func (t *Tracer) WireSpans() []WireSpan {
	if t == nil {
		return nil
	}
	evs := t.snapshotEvents()
	out := make([]WireSpan, 0, len(evs))
	for _, ev := range evs {
		ws := WireSpan{
			ID:      ev.id,
			Parent:  ev.parent,
			Name:    ev.name,
			Path:    ev.path,
			StartNS: ev.startNS,
			DurNS:   ev.durNS,
			Instant: ev.instant,
		}
		for _, a := range ev.attrs {
			ws.Attrs = append(ws.Attrs, WireAttr{K: a.Key, V: a.Value})
		}
		out = append(out, ws)
	}
	return out
}
