package guard

import (
	"context"
	"math/rand"
	"time"
)

// Backoff is the retry-delay policy for transient failures (the Retryable
// class): exponential growth with full jitter. Full jitter — a uniform
// draw over [0, cap] rather than cap itself — is what breaks retry
// synchronization: when many callers fail at the same instant,
// undithered backoff would march their retries in lockstep.
//
// The zero value is usable and takes the defaults below. Backoff is
// stateless; callers pass the attempt number they are about to make.
type Backoff struct {
	// Base caps the delay for attempt 0; the cap doubles per attempt.
	Base time.Duration
	// Max bounds the cap growth.
	Max time.Duration
}

// Default backoff policy: 50ms doubling to a 5s ceiling.
const (
	defaultBackoffBase = 50 * time.Millisecond
	defaultBackoffMax  = 5 * time.Second
)

// Delay returns the full-jitter delay before retry attempt n (0-based): a
// uniform random duration in [0, min(Max, Base<<n)]. Negative attempts are
// treated as 0.
func (b Backoff) Delay(attempt int) time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = defaultBackoffBase
	}
	if max <= 0 {
		max = defaultBackoffMax
	}
	if attempt < 0 {
		attempt = 0
	}
	cap := base
	for i := 0; i < attempt && cap < max; i++ {
		cap *= 2
	}
	if cap > max {
		cap = max
	}
	return time.Duration(rand.Int63n(int64(cap) + 1))
}

// Sleep waits Delay(attempt), bounded by ctx: an expired or canceled ctx
// cuts the sleep short and returns the classified context error (nil when
// the full delay elapsed).
func (b Backoff) Sleep(ctx context.Context, attempt int) error {
	d := b.Delay(attempt)
	if d <= 0 {
		return CtxErr(ctx)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return CtxErr(ctx)
	}
}
