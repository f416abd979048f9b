// Package storecorpus is the lockio corpus: fsync-class calls while a
// same-function-acquired mutex is held are findings, including under a
// deferred Unlock and in a *Locked helper; calls after release or without an error result are not.
package storecorpus

import "sync"

type file struct{}

func (file) Sync() error    { return nil }
func (file) SyncDir() error { return nil }

// meter.Sync returns nothing (a stats flush, not storage I/O).
type meter struct{}

func (meter) Sync() {}

type store struct {
	mu sync.Mutex
	rw sync.RWMutex
	f  file
	m  meter
}

func (s *store) badDeferredUnlock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync() // want lockio
}

func (s *store) badExplicitUnlockLater() error {
	s.mu.Lock()
	err := s.f.Sync() // want lockio
	s.mu.Unlock()
	return err
}

func (s *store) badReadLock() error {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.f.SyncDir() // want lockio
}

func (s *store) goodAfterUnlock() error {
	s.mu.Lock()
	s.mu.Unlock()
	return s.f.Sync()
}

func (s *store) goodNoErrorResult() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.Sync()
}

// A *Locked helper is entered with its caller's lock held.
func (s *store) badSyncLocked() error {
	return s.f.Sync() // want lockio
}

// Function literals are separate lock scopes by design: other
// cross-function lock flows are out of the heuristic's reach.
func (s *store) literalScopeIsSeparate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn := func() error {
		return s.f.Sync()
	}
	return fn()
}

func (s *store) suppressedTeardown() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//aionlint:ignore lockio corpus fixture: teardown-style fsync under the final lock
	return s.f.Sync() // want suppressed(lockio)
}
