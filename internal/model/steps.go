package model

import "context"

// Steps is the series start, start+step, start+2·step, ... of the times at
// or before end, for a positive step: the times a Table 1 range read (a
// getGraph series, an expand over time, an incremental procedure)
// materialises at. It never wraps past MaxInt64, however close end is to
// it, and Next checks ctx before every time, so a long series stops at its
// caller's deadline.
type Steps struct {
	next, end, step Timestamp
	done            bool
}

// NewSteps returns the series from start; it is empty when end < start.
func NewSteps(start, end, step Timestamp) *Steps {
	return &Steps{next: start, end: end, step: step, done: end < start}
}

// Peek returns the series' next time without moving past it; ok is false
// once the series is done.
func (s *Steps) Peek() (ts Timestamp, ok bool) { return s.next, !s.done }

// Next returns the series' next time and moves past it; ok is false once the
// series is done, and err is ctx's error once ctx is done.
func (s *Steps) Next(ctx context.Context) (ts Timestamp, ok bool, err error) {
	if s.done {
		return 0, false, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	ts = s.next
	if uint64(s.end-ts) < uint64(s.step) { // end-ts is in [0, MaxUint64) as unsigned
		s.done = true
	} else {
		s.next += s.step
	}
	return ts, true, nil
}
