package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"snap1/internal/fault"
)

// RetryPolicy bounds re-execution of retryable query failures: runs
// poisoned by injected faults and per-attempt timeouts. A retry waits
// out an exponential back-off from baseBackoff, capped at maxBackoff.
type RetryPolicy struct {
	// MaxAttempts is the total execution attempts per query, the first
	// included; 1 disables retries (0 selects 3).
	MaxAttempts int
}

const (
	baseBackoff = 2 * time.Millisecond
	maxBackoff  = 100 * time.Millisecond
)

func (p RetryPolicy) validate() []error {
	if p.MaxAttempts < 0 {
		return []error{fmt.Errorf("Retry.MaxAttempts must be >= 0, got %d", p.MaxAttempts)}
	}
	return nil
}

// backoff returns the pause before retry attempt (attempt >= 1):
// exponential from baseBackoff, capped at maxBackoff, with ±25%
// deterministic jitter derived from the query hash and attempt number —
// reproducible runs, but collapsed retries of distinct queries still
// decorrelate.
func backoff(attempt int, h uint64) time.Duration {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	d = min(d, maxBackoff)
	x := h ^ uint64(attempt)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	frac := int64(x%1000) - 500 // [-500, 499] thousandths of ±50% → ±25%
	return d + time.Duration(int64(d)*frac/2000)
}

// attemptCtx is one attempt's context under QueryTimeout: the caller's,
// plus the engine's own deadline. A run polls Err between instructions,
// and the caller runs its own attempt, so on the path where nothing
// waits the deadline costs a clock read per poll and no timer. The timer
// is armed only when something waits on Done: a caller in line for a
// replica, or a wedged array.
type attemptCtx struct {
	context.Context // the caller's
	deadline        time.Time

	once   sync.Once
	armed  context.Context // the caller's under the deadline; made by arm
	cancel context.CancelFunc
}

func newAttemptCtx(ctx context.Context, timeout time.Duration) *attemptCtx {
	return &attemptCtx{Context: ctx, deadline: time.Now().Add(timeout)}
}

func (c *attemptCtx) Deadline() (time.Time, bool) {
	if d, ok := c.Context.Deadline(); ok && d.Before(c.deadline) {
		return d, true
	}
	return c.deadline, true
}

func (c *attemptCtx) Done() <-chan struct{} { return c.arm().Done() }

// Err is nil until the caller's context ends or the deadline passes. Past
// the deadline it arms the timer, which closes Done at once, so Err is
// never set while Done is open.
func (c *attemptCtx) Err() error {
	if err := c.Context.Err(); err != nil || time.Now().Before(c.deadline) {
		return err
	}
	return c.arm().Err()
}

func (c *attemptCtx) arm() context.Context {
	c.once.Do(func() { c.armed, c.cancel = context.WithDeadline(c.Context, c.deadline) })
	return c.armed
}

// release stops the timer, if one was armed; the context is not used
// after it.
func (c *attemptCtx) release() {
	c.once.Do(func() {})
	if c.cancel != nil {
		c.cancel()
	}
}

// attemptTimedOut reports whether ctx, which has ended, ended at the
// engine's own per-attempt deadline rather than the caller's. The
// engine's deadline blown on a replica says something about the replica;
// one the caller chose does not.
func attemptTimedOut(ctx context.Context) bool {
	a, ok := ctx.(*attemptCtx)
	return ok && a.Context.Err() == nil
}

// attemptRetryable reports whether a failed attempt may be re-executed:
// a run poisoned by injected ICN corruption re-runs bit-identically
// once unfaulted, and a per-attempt timeout may have been a wedged or
// slowed replica; the retry is taken by whichever replica is free.
func attemptRetryable(err error) bool {
	return errors.Is(err, fault.ErrInjected) || errors.Is(err, context.DeadlineExceeded)
}
