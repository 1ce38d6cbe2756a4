package obs

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"strings"
)

// Request-scoped tracing and trace-context parsing. A request tracer
// (NewRequestTracer + StartRoot) captures one unit of work's span subtree
// independently of the process-wide tracer, and WireSpans exports it as
// structured records. ParseTraceparent reads an incoming W3C traceparent
// header, whose trace id serve's access log adopts as the request id.

// TraceparentHeader is the HTTP header carrying trace context, per the W3C
// Trace Context spec ("traceparent: 00-<trace-id>-<parent-id>-<flags>").
const TraceparentHeader = "Traceparent"

// NewTraceID returns 16 random bytes as 32 lowercase hex chars. It is the
// request-id generator for serve access logs: a request that arrives
// without correlation headers still gets a unique, trace-shaped id.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively unreachable; a fixed fallback
		// keeps request ids flowing rather than failing the request.
		return "00000000000000000000000000000001"
	}
	return hex.EncodeToString(b[:])
}

// NewRequestTracer returns a detached tracer for capturing one request's
// span subtree. It is never installed process-wide: the caller roots the
// request's work with StartRoot, and every nested Start joins the subtree
// through the context's parent span. Export the capture with WireSpans.
func NewRequestTracer() *Tracer {
	detachedEver.Store(true)
	return newTracer()
}

// ParseTraceparent splits a traceparent header value into its trace id and
// parent span id. It accepts any version byte and ignores the flags, per
// the spec's forward-compatibility rules; malformed or all-zero ids report
// ok=false.
func ParseTraceparent(s string) (traceID string, parentID uint64, ok bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return "", 0, false
	}
	if _, err := hex.DecodeString(parts[1]); err != nil || parts[1] == strings.Repeat("0", 32) {
		return "", 0, false
	}
	id, err := strconv.ParseUint(parts[2], 16, 64)
	if err != nil || id == 0 {
		return "", 0, false
	}
	return parts[1], id, true
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
