package strstore

import (
	"errors"
	"fmt"
	"testing"

	"aion/internal/testkit/vfstest"
)

// TestOpenRepairsTornTail: a crash mid-append leaves a partial
// length-prefixed record; Open truncates it and the store reloads the
// intact prefix, accepts new interns, and persists them.
func TestOpenRepairsTornTail(t *testing.T) {
	fs := vfstest.NewFaultFS()
	s, err := OpenFS(fs, "d/strings.db")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Intern(fmt.Sprintf("label-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	// Torn append: length prefix claims 10 bytes but only 3 follow, then
	// crash without sync... except FaultFS discards unsynced bytes, so
	// write the torn bytes and sync them to model a torn-but-synced tail
	// (a real fsync can persist a partial append before power loss).
	f, err := fs.OpenFile("d/strings.db")
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	f.WriteAt([]byte{10, 0, 0, 0, 'x', 'y', 'z'}, size)
	f.Sync()
	fs.Crash()

	s2, err := OpenFS(fs, "d/strings.db")
	if err != nil {
		t.Fatalf("open must repair the torn tail, got %v", err)
	}
	if s2.RepairedBytes() != 7 {
		t.Errorf("repaired %d bytes, want 7", s2.RepairedBytes())
	}
	if s2.Len() != 5 {
		t.Fatalf("reloaded %d strings, want 5", s2.Len())
	}
	for i := 0; i < 5; i++ {
		want := fmt.Sprintf("label-%d", i)
		got, err := s2.Lookup(Ref(i))
		if err != nil || got != want {
			t.Errorf("ref %d = %q %v, want %q", i, got, err, want)
		}
	}
	// The repaired store accepts and persists new strings.
	r, err := s2.Intern("label-5")
	if err != nil {
		t.Fatal(err)
	}
	if r != 5 {
		t.Errorf("new ref = %d, want 5 (refs are positional)", r)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	s3, err := OpenFS(fs, "d/strings.db")
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 6 {
		t.Errorf("after repair+append+sync reloaded %d strings, want 6", s3.Len())
	}
}

// TestSyncFailStop: an injected fsync failure surfaces from Sync, and the
// store refuses further interns and syncs.
func TestSyncFailStop(t *testing.T) {
	fs := vfstest.NewFaultFS()
	s, err := OpenFS(fs, "d/strings.db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Intern("a"); err != nil {
		t.Fatal(err)
	}
	// Sync = bufio flush (one write) + fsync; fail the fsync.
	fs.SetFailAfter(fs.Ops() + 2)
	if err := s.Sync(); !errors.Is(err, vfstest.ErrInjected) {
		t.Fatalf("sync must surface the injected error, got %v", err)
	}
	fs.SetFailAfter(0)
	if _, err := s.Intern("b"); err == nil {
		t.Error("intern of a new string after failed sync must fail-stop")
	}
	if err := s.Sync(); err == nil {
		t.Error("sync after failed sync must fail-stop")
	}
	// Already-interned strings still resolve (read path unaffected).
	if r, err := s.Intern("a"); err != nil || r != 0 {
		t.Errorf("known string must still resolve: %d %v", r, err)
	}
}

// TestSyncSkipsWhenClean: Sync is a no-op with no outstanding appends (the
// per-commit hot path relies on this).
func TestSyncSkipsWhenClean(t *testing.T) {
	fs := vfstest.NewFaultFS()
	s, err := OpenFS(fs, "d/strings.db")
	if err != nil {
		t.Fatal(err)
	}
	s.Intern("a")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	before := fs.Ops()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.Ops() != before {
		t.Errorf("clean sync performed %d ops, want 0", fs.Ops()-before)
	}
}
