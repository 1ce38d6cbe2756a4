package obs

import (
	"context"
	"testing"
)

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
