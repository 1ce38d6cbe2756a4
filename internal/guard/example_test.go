package guard_test

import (
	"context"
	"errors"
	"fmt"

	"neurometer/internal/guard"
)

// Every model error wraps exactly one taxonomy sentinel, so callers
// classify with Kind or errors.Is.
func ExampleKind() {
	err := guard.Invalid("tile grid %dx%d exceeds the die", 16, 16)
	fmt.Println(guard.Kind(err), errors.Is(err, guard.ErrInvalidConfig))

	stalled := fmt.Errorf("candidate stalled: %w", guard.ErrTimeout)
	fmt.Println(guard.Kind(stalled), errors.Is(stalled, guard.ErrTimeout))
	// Output:
	// invalid-config true
	// timeout true
}

// CtxErr is the sweeps' single idiom for "has this run been interrupted,
// and how": nil while live, a classified taxonomy error afterwards.
func ExampleCtxErr() {
	ctx, cancel := context.WithCancel(context.Background())
	fmt.Println(guard.CtxErr(ctx))
	cancel()
	fmt.Println(errors.Is(guard.CtxErr(ctx), guard.ErrCanceled))
	// Output:
	// <nil>
	// true
}

// CheckFinite keeps NaN/Inf out of frontiers and reports: finite values
// pass, anything else becomes a classified ErrNonFinite.
func ExampleCheckFinite() {
	fmt.Println(guard.CheckFinite("power_w", 12.5))

	var nan float64
	nan /= nan
	fmt.Println(errors.Is(guard.CheckFinite("power_w", nan), guard.ErrNonFinite))
	// Output:
	// <nil>
	// true
}
