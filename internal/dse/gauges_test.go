package dse

import (
	"context"
	"errors"
	"testing"
	"time"

	"neurometer/internal/guard"
	"neurometer/internal/invariants"
)

// checkGaugesDrained asserts the pool gauges returned to zero once a sweep
// finished — the regression contract for the inflight-slot leak: panics and
// timeouts inside candidate evaluation must not strand dse.eval_inflight or
// dse.queue_depth above zero. The check itself is the shared invariant
// TestStoreDamageUnderFaults asserts after every fault row.
func checkGaugesDrained(t *testing.T) {
	t.Helper()
	invariants.RequireGaugesDrained(t, "dse.eval_inflight", "dse.queue_depth")
}

func TestGaugesDrainAfterPanickingCandidates(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	// Every candidate's simulation panics; the recovery path must still
	// release its inflight slot.
	disarm := guard.Arm("perfsim.simulate", guard.Fault{Panic: true})
	defer disarm()

	_, err := RuntimeStudyHardened(context.Background(), cands, models, spec, opt, Hardening{Workers: 2})
	if err == nil {
		t.Fatal("want all-candidates-failed error")
	}
	checkGaugesDrained(t)
}

func TestGaugesDrainAfterTimeouts(t *testing.T) {
	defer guard.DisarmAll()
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	// Every simulation stalls past the study's deadline: each worker
	// abandons its candidate mid-flight when the deadline passes, which
	// must not leak a slot.
	disarm := guard.Arm("perfsim.simulate", guard.Fault{Delay: 10 * time.Second})
	defer disarm()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := RuntimeStudyHardened(ctx, cands, models, spec, opt, Hardening{Workers: 2})
	if !errors.Is(err, guard.ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	checkGaugesDrained(t)
}
