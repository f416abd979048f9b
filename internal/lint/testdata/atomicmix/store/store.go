// Package store is the atomicmix corpus. Stats reproduces the shipped
// group-commit bug shape: a counter bumped with sync/atomic's function API
// on the hot path can be read or reset plainly elsewhere — a data race the
// race detector only catches when both paths run in the same test. The
// rule bans the function API, so every atomic is typed and a plain access
// to it does not compile.
package store

import "sync/atomic"

type Stats struct {
	// commits is a plain int64 handed to the atomic functions: every call
	// is a finding.
	commits int64

	// flushes is a typed atomic: clean.
	flushes atomic.Int64
}

func (s *Stats) Commit() {
	atomic.AddInt64(&s.commits, 1) // want atomicmix
}

func (s *Stats) Commits() int64 {
	return atomic.LoadInt64(&s.commits) // want atomicmix
}

func (s *Stats) Flush()         { s.flushes.Add(1) }
func (s *Stats) Flushes() int64 { return s.flushes.Load() }

// Reset keeps a deliberate function-API call; the suppression must mute it.
func (s *Stats) Reset() {
	//aionlint:ignore atomicmix the corpus's one reasoned exception
	atomic.StoreInt64(&s.commits, 0) // want suppressed(atomicmix)
}
