// Package clocktest holds Fake, a clock.Clock that tests advance by hand. It
// is test support: no binary imports it.
package clocktest

import (
	"context"
	"sync"
	"time"
)

// Fake is a manually advanced clock for deterministic tests: Sleep and
// After block until Advance has moved the clock past their deadline, so a
// test drives every backoff and heartbeat interval explicitly and a sweep
// over thousands of fault points spends no wall-clock time sleeping.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewFake returns a fake clock starting at start.
func NewFake(start time.Time) *Fake { return &Fake{now: start} }

// Now implements clock.Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Advance moves the clock forward by d and releases every sleeper whose
// deadline has passed.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	now := f.now
	var remaining []*fakeWaiter
	var due []*fakeWaiter
	for _, w := range f.waiters {
		if !w.at.After(now) {
			due = append(due, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	f.waiters = remaining
	f.mu.Unlock()
	for _, w := range due {
		w.ch <- now
	}
}

// Sleepers reports how many Sleep/After calls are currently blocked —
// tests use it to know when the code under test has reached its wait.
func (f *Fake) Sleepers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

// After returns a channel that delivers the then-current time once d has
// elapsed on this clock.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- f.now
		return ch
	}
	f.waiters = append(f.waiters, &fakeWaiter{at: f.now.Add(d), ch: ch})
	return ch
}

// Sleep implements clock.Clock.
func (f *Fake) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	ch := f.After(d)
	select {
	case <-ctx.Done():
		f.drop(ch)
		return ctx.Err()
	case <-ch:
		return nil
	}
}

// drop unregisters an abandoned waiter so cancelled sleeps don't pile up.
func (f *Fake) drop(ch <-chan time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, w := range f.waiters {
		if w.ch == ch {
			f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
			return
		}
	}
}
