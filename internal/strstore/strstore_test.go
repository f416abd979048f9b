package strstore

import (
	"fmt"
	"path/filepath"
	"testing"

	"aion/internal/vfs"
)

func TestInternDedup(t *testing.T) {
	s := NewMem()
	a, _ := s.Intern("hello")
	b, _ := s.Intern("world")
	c, _ := s.Intern("hello")
	if a == b {
		t.Error("distinct strings must get distinct refs")
	}
	if a != c {
		t.Error("repeated Intern must return the same ref")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestLookupRoundTrip(t *testing.T) {
	s := NewMem()
	words := []string{"", "a", "label", "a longer string with spaces", "ünïcode"}
	refs := make([]Ref, len(words))
	for i, w := range words {
		refs[i] = s.MustIntern(w)
	}
	for i, r := range refs {
		got, err := s.Lookup(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != words[i] {
			t.Errorf("Lookup(%d) = %q, want %q", r, got, words[i])
		}
	}
}

func TestLookupDangling(t *testing.T) {
	s := NewMem()
	if _, err := s.Lookup(99); err == nil {
		t.Error("dangling ref must error")
	}
}

func TestPersistenceReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "strings.db")
	s, err := OpenFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := s.MustIntern("alpha")
	r2 := s.MustIntern("beta")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, _ := s2.Lookup(r1); got != "alpha" {
		t.Errorf("reloaded ref1 = %q", got)
	}
	if got, _ := s2.Lookup(r2); got != "beta" {
		t.Errorf("reloaded ref2 = %q", got)
	}
	// Interning an existing string after reload returns the old ref.
	if r := s2.MustIntern("alpha"); r != r1 {
		t.Errorf("reloaded intern = %d, want %d", r, r1)
	}
	// New strings keep extending the table.
	r3 := s2.MustIntern("gamma")
	if r3 != r2+1 {
		t.Errorf("new ref = %d, want %d", r3, r2+1)
	}
	if s2.DiskBytes() <= 0 {
		t.Error("persistent store must report disk bytes")
	}
}

func TestConcurrentIntern(t *testing.T) {
	s := NewMem()
	done := make(chan bool)
	words := []string{"a", "b", "c", "d", "e"}
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				s.MustIntern(words[i%len(words)])
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if s.Len() != len(words) {
		t.Errorf("Len = %d, want %d", s.Len(), len(words))
	}
}

// TestConcurrentInternAndLookup exercises the lock-free read paths against
// a writer interning a stream of fresh strings (run with -race).
func TestConcurrentInternAndLookup(t *testing.T) {
	s := NewMem()
	const n = 2000
	done := make(chan bool)
	go func() {
		for i := 0; i < n; i++ {
			s.MustIntern(fmt.Sprintf("str-%d", i))
		}
		done <- true
	}()
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < n; i++ {
				if l := s.Len(); l > 0 {
					got, err := s.Lookup(Ref(l - 1))
					if err != nil || got == "" {
						t.Errorf("lookup of published ref failed: %q %v", got, err)
						break
					}
				}
				s.MustIntern("shared")
			}
			done <- true
		}()
	}
	for g := 0; g < 5; g++ {
		<-done
	}
	for i := 0; i < n; i++ {
		w := fmt.Sprintf("str-%d", i)
		r := s.MustIntern(w)
		if got, _ := s.Lookup(r); got != w {
			t.Fatalf("ref %d resolves to %q, want %q", r, got, w)
		}
	}
}

// MustIntern is Intern for in-memory stores where appends cannot fail; it
// panics on error.
func (st *Store) MustIntern(s string) Ref {
	r, err := st.Intern(s)
	if err != nil {
		panic(err)
	}
	return r
}

// Len returns the number of interned strings.
func (st *Store) Len() int {
	return len(st.table())
}
