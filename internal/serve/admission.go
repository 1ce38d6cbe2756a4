package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"neurometer/internal/guard"
)

// ErrShed marks a request rejected by admission control: the waiting room
// was full, or no execution slot freed up within the admission deadline or
// the request's own deadline. The middleware maps it to 429 Too Many
// Requests with a Retry-After header — shedding is the designed response to
// overload, not a server failure, so it neither feeds the watchdog nor
// counts as a 5xx.
var ErrShed = errors.New("overloaded")

// limiter is one endpoint's admission controller: at most cap(slots)
// requests executing, at most cap(queue) more waiting, everyone else shed
// immediately. A waiter that does not get a slot within admissionTimeout is
// shed too — bounded queueing in space AND time.
type limiter struct {
	endpoint         string
	slots            chan struct{}
	queue            chan struct{}
	admissionTimeout time.Duration
}

func newLimiter(endpoint string, maxInflight, queueDepth int, admissionTimeout time.Duration) *limiter {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &limiter{
		endpoint:         endpoint,
		slots:            make(chan struct{}, maxInflight),
		queue:            make(chan struct{}, maxInflight+queueDepth),
		admissionTimeout: admissionTimeout,
	}
}

// acquire admits the request or returns ErrShed (or the classified context
// error when the client gave up while waiting). A waiter whose ctx deadline
// passes first is shed too. On success the returned
// release func must be called exactly once when the request finishes.
func (l *limiter) acquire(ctx context.Context) (release func(), err error) {
	// The waiting room bounds slot-holders plus waiters, so a ticket is
	// held until the request releases its slot.
	select {
	case l.queue <- struct{}{}:
	default:
		return nil, fmt.Errorf("%w: %s: admission queue full", ErrShed, l.endpoint)
	}
	timer := time.NewTimer(l.admissionTimeout)
	defer timer.Stop()
	select {
	case l.slots <- struct{}{}:
		return func() {
			<-l.slots
			<-l.queue
		}, nil
	case <-timer.C:
		<-l.queue
		return nil, fmt.Errorf("%w: %s: no slot within admission deadline %s",
			ErrShed, l.endpoint, l.admissionTimeout)
	case <-ctx.Done():
		<-l.queue
		// A deadline that passes in the queue is overload, not a failed
		// request: shed it, so it stays out of the watchdog's 5xx count.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("%w: %s: request deadline passed while waiting for a slot", ErrShed, l.endpoint)
		}
		return nil, guard.CtxErr(ctx)
	}
}
