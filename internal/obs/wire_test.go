package obs

import (
	"context"
	"strings"
	"testing"
)

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"00-short-0000000000000001-01",
		"00-" + strings.Repeat("0", 32) + "-0000000000000001-01", // all-zero trace id
		"00-" + strings.Repeat("a", 32) + "-0000000000000000-01", // all-zero parent
		"00-" + strings.Repeat("g", 32) + "-0000000000000001-01", // non-hex trace id
	}
	for _, s := range bad {
		if _, _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) = ok, want rejection", s)
		}
	}
	// Forward compatibility: a future version byte and trailing fields parse.
	if _, _, ok := ParseTraceparent("cc-" + strings.Repeat("a", 32) + "-00000000000000ff-01-future"); !ok {
		t.Error("future-version traceparent must parse")
	}
}

// TestRequestTracerCapturesSubtreeWhileGlobalOff is the worker-side
// contract: with process-wide tracing disabled, a request tracer still
// captures the whole subtree rooted at StartRoot, because children join
// their parent's tracer through the context.
func TestRequestTracerCapturesSubtreeWhileGlobalOff(t *testing.T) {
	if TracingEnabled() {
		t.Fatal("tracing must be disabled for this test")
	}
	rt := NewRequestTracer()
	ctx, root := rt.StartRoot(context.Background(), "worker.eval")
	cctx, child := Start(ctx, "dse.candidate")
	Event(cctx, "checkpoint")
	child.End()
	root.End()

	spans := rt.WireSpans()
	if len(spans) != 3 {
		t.Fatalf("captured %d spans, want 3", len(spans))
	}
	byPath := map[string]WireSpan{}
	for _, ws := range spans {
		byPath[ws.Path] = ws
	}
	rootWS := byPath["worker.eval"]
	childWS := byPath["worker.eval/dse.candidate"]
	evWS := byPath["worker.eval/dse.candidate/checkpoint"]
	if rootWS.Parent != 0 {
		t.Errorf("root parent = %d, want 0", rootWS.Parent)
	}
	if childWS.Parent != rootWS.ID {
		t.Errorf("child parent = %d, want root id %d", childWS.Parent, rootWS.ID)
	}
	if evWS.Parent != childWS.ID || !evWS.Instant {
		t.Errorf("instant event parent=%d instant=%v, want parent=%d instant=true",
			evWS.Parent, evWS.Instant, childWS.ID)
	}
}
