// Package clock is the time seam for liveness and backoff logic: anything
// that sleeps between retries, measures heartbeat silence, or stamps
// last-contact times takes a Clock instead of calling the time package
// directly, so the network-fault sweeps (internal/testkit/netfault and the failover
// harness) can run thousands of reconnect/backoff cycles deterministically
// without wall-clock waits — the same way internal/vfs removes the real
// disk from the crash sweeps.
package clock

import (
	"context"
	"time"
)

// Clock supplies the two operations the serving and replication paths need
// from time: a current instant and a cancellable sleep. Implementations must
// be safe for concurrent use.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks for d or until ctx is done, whichever comes first.
	// It returns ctx.Err() when the context ended the sleep early.
	Sleep(ctx context.Context, d time.Duration) error
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// OrReal returns c, or the wall clock when c is nil — the idiom every
// Clock-bearing option struct uses so its zero value keeps working.
func OrReal(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}
