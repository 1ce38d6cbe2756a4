package guard

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestTaxonomyConstructors(t *testing.T) {
	if err := Invalid("x must be %d", 3); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("Invalid must wrap ErrInvalidConfig: %v", err)
	} else if !strings.Contains(err.Error(), "x must be 3") {
		t.Errorf("Invalid must format the message: %v", err)
	}
	if err := Infeasible("no org"); !errors.Is(err, ErrInfeasible) {
		t.Errorf("Infeasible must wrap ErrInfeasible: %v", err)
	}
	if err := NonFinite("area", math.NaN()); !errors.Is(err, ErrNonFinite) {
		t.Errorf("NonFinite must wrap ErrNonFinite: %v", err)
	}
}

func TestClassify(t *testing.T) {
	if Classify(nil) != nil {
		t.Errorf("Classify(nil) must be nil")
	}
	if err := Classify(context.DeadlineExceeded); !errors.Is(err, ErrTimeout) {
		t.Errorf("deadline must classify as ErrTimeout: %v", err)
	}
	if err := Classify(context.Canceled); !errors.Is(err, ErrCanceled) {
		t.Errorf("cancel must classify as ErrCanceled: %v", err)
	}
	sentinel := errors.New("other")
	if Classify(sentinel) != sentinel {
		t.Errorf("unrelated errors must pass through")
	}
}

func TestCtxErr(t *testing.T) {
	if err := CtxErr(context.Background()); err != nil {
		t.Errorf("live ctx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := CtxErr(ctx); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled ctx must yield ErrCanceled: %v", err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	<-dctx.Done()
	if err := CtxErr(dctx); !errors.Is(err, ErrTimeout) {
		t.Errorf("expired ctx must yield ErrTimeout: %v", err)
	}
}

func TestKind(t *testing.T) {
	cases := map[string]error{
		"invalid-config": Invalid("z"),
		"infeasible":     Infeasible("z"),
		"non-finite":     NonFinite("z", math.NaN()),
		"timeout":        Classify(context.DeadlineExceeded),
		"canceled":       Classify(context.Canceled),
		"unavailable":    Unavailable("worker gone"),
		"error":          errors.New("misc"),
	}
	for want, err := range cases {
		if got := Kind(err); got != want {
			t.Errorf("Kind(%v) = %q, want %q", err, got, want)
		}
	}
	var panicked error
	func() {
		defer RecoverTo(&panicked)
		panic("boom")
	}()
	if Kind(panicked) != "panic" {
		t.Errorf("Kind(recovered panic) = %q", Kind(panicked))
	}
}

func TestCheckFinite(t *testing.T) {
	if err := CheckFinite("ok", 1.5); err != nil {
		t.Errorf("finite value: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckFinite("bad", v); !errors.Is(err, ErrNonFinite) {
			t.Errorf("CheckFinite(%v) = %v, want ErrNonFinite", v, err)
		}
	}
	if err := CheckFinites("a", 1.0, "b", 2.0); err != nil {
		t.Errorf("all finite: %v", err)
	}
	err := CheckFinites("a", 1.0, "b", math.NaN())
	if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "b") {
		t.Errorf("CheckFinites must name the offender: %v", err)
	}
}

func TestRecoverTo(t *testing.T) {
	eval := func(boom bool) (err error) {
		defer RecoverTo(&err)
		if boom {
			panic("exploded")
		}
		return nil
	}
	if err := eval(false); err != nil {
		t.Errorf("no panic: %v", err)
	}
	err := eval(true)
	if !errors.Is(err, ErrCandidatePanic) {
		t.Fatalf("panic must convert to ErrCandidatePanic: %v", err)
	}
	if !strings.Contains(err.Error(), "exploded") {
		t.Errorf("panic value must be preserved: %v", err)
	}
	// The origin hint should point at this test file, not the runtime.
	if !strings.Contains(err.Error(), "guard_test.go") {
		t.Logf("origin hint did not resolve to the panic site (best-effort): %v", err)
	}
	before := mPanics.Value()
	_ = eval(true)
	if mPanics.Value() != before+1 {
		t.Errorf("recovered panics must be counted")
	}
}
