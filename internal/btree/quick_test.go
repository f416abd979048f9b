package btree

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"aion/internal/pagecache"
	"aion/internal/vfs"
)

// TestCursorMatchesReference cross-checks the cursor — SeekFloor, then Prev
// and Next walks off that position — against a sorted reference slice under
// random inserts and deletes. Deleting whole bands leaves empty leaves, which
// the floor must fall back across and Next must skip; targets below the
// first key and at the tree's last key come up by construction. The small
// cache makes every descent evict, and no operation may leave a page pinned.
func TestCursorMatchesReference(t *testing.T) {
	pc := pagecache.OpenMem(16)
	tr, err := Open(pc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	present := map[string]string{}
	randKey := func() []byte {
		b := make([]byte, 1+rng.Intn(12))
		for i := range b {
			b[i] = byte('a' + rng.Intn(6))
		}
		return b
	}
	sorted := func() []string {
		keys := make([]string, 0, len(present))
		for k := range present {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	at := func(step int, c *Cursor, keys []string, i int, what string) {
		t.Helper()
		if string(c.Key()) != keys[i] || string(c.Value()) != present[keys[i]] {
			t.Fatalf("step %d: %s = %q/%q, want %q/%q", step, what, c.Key(), c.Value(), keys[i], present[keys[i]])
		}
	}
	probe := func(step int, target []byte) {
		keys := sorted()
		floor := sort.SearchStrings(keys, string(target)) // first key >= target
		if floor == len(keys) || keys[floor] != string(target) {
			floor--
		}
		c := tr.Cursor()
		defer c.Close()
		if ok := c.SeekFloor(target); ok != (floor >= 0) {
			t.Fatalf("step %d: floor(%q) ok=%v, want index %d of %d", step, target, ok, floor, len(keys))
		}
		// Walk a few cells one way, come back, walk the other way: every
		// step must agree with the slice, and so must the ends.
		i := floor
		if i >= 0 {
			at(step, &c, keys, i, "floor")
		}
		for n := rng.Intn(40); n > 0 && i >= 0; n-- {
			if i--; c.Prev() != (i >= 0) {
				t.Fatalf("step %d: Prev to index %d of %d disagrees", step, i, len(keys))
			}
			if i >= 0 {
				at(step, &c, keys, i, "prev")
			}
		}
		for n := rng.Intn(80); n > 0 && i < len(keys); n-- {
			if i++; c.Next() != (i < len(keys)) {
				t.Fatalf("step %d: Next to index %d of %d disagrees", step, i, len(keys))
			}
			if i < len(keys) {
				at(step, &c, keys, i, "next")
			}
		}
		if i == len(keys) && len(keys) > 0 {
			if !c.Prev() {
				t.Fatalf("step %d: Prev from past the last key", step)
			}
			at(step, &c, keys, len(keys)-1, "prev from the end")
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 8000; step++ {
		switch r := rng.Intn(16); {
		case r < 8:
			k, v := randKey(), randKey()
			if err := tr.Put(k, v); err != nil {
				t.Fatal(err)
			}
			present[string(k)] = string(v)
		case r < 11:
			k := randKey()
			tr.Delete(k)
			delete(present, string(k))
		case r == 11 && step%7 == 0: // empty a band of neighbouring leaves
			keys := sorted()
			lo := rng.Intn(len(keys) + 1)
			for _, k := range keys[lo:min(lo+300, len(keys))] {
				tr.Delete([]byte(k))
				delete(present, k)
			}
		case r == 12:
			if keys := sorted(); len(keys) > 0 {
				probe(step, []byte(keys[len(keys)-1]))
				probe(step, []byte(keys[0]))
			}
			probe(step, []byte("a"))
		default:
			probe(step, randKey())
		}
		if n := pc.Pinned(); n != 0 {
			t.Fatalf("step %d left %d pages pinned", step, n)
		}
	}
}

// TestCursorReleasesOnEveryExit drives the cursor's early exits — a Scan
// callback returning false, a read error mid-descent and mid-chain, a cursor
// closed where it stands — and requires that each leaves no page pinned and
// the tree lock free.
func TestCursorReleasesOnEveryExit(t *testing.T) {
	back := &flakyFS{FS: vfs.NewFaultFS(), reads: -1}
	pc, err := pagecache.OpenFS(back, "tree.idx", 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(pc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	free := func(what string) {
		t.Helper()
		if n := pc.Pinned(); n != 0 {
			t.Fatalf("%s left %d pages pinned", what, n)
		}
		if !tr.mu.TryLock() {
			t.Fatalf("%s left the tree locked", what)
		}
		tr.mu.Unlock()
	}
	n := 0
	if err := tr.Scan(key(100), nil, func(k, v []byte) bool { n++; return n < 500 }); err != nil || n != 500 {
		t.Fatalf("scan stopped by its callback: %d entries, %v", n, err)
	}
	free("a scan its callback stopped")

	c := tr.Cursor()
	c.SeekFloor(key(2000))
	c.Prev()
	c.Close()
	free("a cursor closed mid-walk")

	for _, failAfter := range []int{0, 1, 2, 5} {
		back.failAfter(failAfter)
		c := tr.Cursor()
		ok := c.SeekFloor(key(10))
		for ok {
			ok = c.Next()
		}
		if !errors.Is(c.Err(), errFlaky) {
			t.Fatalf("reads failing after %d: cursor error %v", failAfter, c.Err())
		}
		if c.Next() || c.Prev() || c.SeekFloor(key(1)) {
			t.Fatal("a failed cursor moved")
		}
		c.Close()
		back.failAfter(-1)
		free("a cursor stopped by a read error")
	}
	if _, ok, err := tr.Get(key(7)); !ok || err != nil {
		t.Fatalf("the tree after the failed reads: %v %v", ok, err)
	}
}

var errFlaky = errors.New("flaky file: read failed")

// flakyFS is an in-memory filesystem whose files' reads fail once a countdown
// set by failAfter has run out.
type flakyFS struct {
	vfs.FS
	reads int // reads left before they fail; negative: never
}

func (fs *flakyFS) failAfter(n int) { fs.reads = n }

func (fs *flakyFS) OpenFile(path string) (vfs.File, error) {
	f, err := fs.FS.OpenFile(path)
	return flakyFile{f, fs}, err
}

type flakyFile struct {
	vfs.File
	fs *flakyFS
}

func (f flakyFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.reads == 0 {
		return 0, errFlaky
	}
	if f.fs.reads > 0 {
		f.fs.reads--
	}
	return f.File.ReadAt(p, off)
}

// TestCursorReadAllocatesNothing pins the point of the cursor: a floor read
// of cached pages, and a walk off it, copy and allocate nothing.
func TestCursorReadAllocatesNothing(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 5000; i++ {
		tr.Put(key(i), val(i))
	}
	target, want := key(2500), val(2500)
	allocs := testing.AllocsPerRun(200, func() {
		c := tr.Cursor()
		if !c.SeekFloor(target) || !bytes.Equal(c.Value(), want) || !c.Prev() || !c.Next() || !c.Next() {
			t.Error("cursor lost its way")
		}
		c.Close()
	})
	if allocs != 0 {
		t.Errorf("a cached cursor read allocates %.0f times, want 0", allocs)
	}
}
