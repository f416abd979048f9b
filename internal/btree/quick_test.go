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

// TestCursorPrevFromAnEmptyTail empties the tree's last leaves — deletes do
// not rebalance, so the chain still ends in them — runs Next off the end and
// steps back: Prev must find the largest key left, with no cell to start
// from; and on a tree emptied altogether there is nothing either way.
func TestCursorPrevFromAnEmptyTail(t *testing.T) {
	pc := pagecache.OpenMem(16)
	tr, err := Open(pc)
	if err != nil {
		t.Fatal(err)
	}
	const n, kept = 4000, 3000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := kept; i < n; i++ {
		tr.Delete(key(i))
	}
	// A dead slot of an emptied leaf still points at its old cell; point it
	// at an empty key instead, so that a Prev that reads it goes astray.
	for pid := tr.root; ; {
		p, err := pc.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		next := pagecache.PageID(extra(p)) // an internal page's leftmost child, a leaf's successor
		if isLeaf(p) && nKeys(p) == 0 {
			clear(p[pageSize-8:])
			setSlotOff(p, 0, pageSize-8)
			pc.MarkDirty(pid)
		}
		pc.Release(pid)
		if isLeaf(p) && next == 0 {
			break
		}
		pid = next
	}
	c := tr.Cursor()
	if !c.SeekFloor(key(kept - 10)) {
		t.Fatal("no floor")
	}
	steps := 0
	for c.Next() {
		steps++
	}
	if steps != 9 {
		t.Fatalf("%d cells after the floor, want 9", steps)
	}
	if !c.Prev() || !bytes.Equal(c.Key(), key(kept-1)) || !bytes.Equal(c.Value(), val(kept-1)) {
		t.Fatalf("Prev from the empty tail: %v", c.Err())
	}
	if c.Next() || !c.Prev() || !bytes.Equal(c.Key(), key(kept-1)) {
		t.Fatal("a second round trip over the empty tail")
	}
	c.Close()

	for i := 0; i < kept; i++ {
		tr.Delete(key(i))
	}
	c = tr.Cursor()
	if c.SeekFloor(key(5)) || c.Next() || c.Prev() || c.Next() || c.Err() != nil {
		t.Fatalf("a cursor moved on an empty tree: %v", c.Err())
	}
	c.Close()
	if n := pc.Pinned(); n != 0 {
		t.Fatalf("%d pages left pinned", n)
	}
}

// TestCursorYield: a yielded cursor lets a writer through, holds no page
// while it waits, and seeks again afterwards.
func TestCursorYield(t *testing.T) {
	pc := pagecache.OpenMem(64)
	tr, _ := Open(pc)
	for i := 0; i < 2000; i++ {
		tr.Put(key(i), val(i))
	}
	c := tr.Cursor()
	defer c.Close()
	if !c.SeekFloor(key(1000)) {
		t.Fatal("no floor")
	}
	put := make(chan error)
	go func() { put <- tr.Put(key(5000), val(5000)) }()
	for done := false; !done; {
		select {
		case err := <-put:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
			c.Yield()
		}
	}
	if n := pc.Pinned(); n != 0 {
		t.Fatalf("a yielded cursor pins %d pages", n)
	}
	if c.Next() || !c.SeekFloor(key(9999)) || !bytes.Equal(c.Key(), key(5000)) {
		t.Fatal("the cursor after Yield")
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

// TestSequentialSplitKeepsPagesFull verifies the rightmost-append split
// optimization: ascending inserts should fill pages near 100 % rather than
// the 50 % a half-split would leave.
func TestSequentialSplitKeepsPagesFull(t *testing.T) {
	pc := pagecache.OpenMem(1 << 16)
	tr, _ := Open(pc)
	payload := 0
	for i := 0; i < 30000; i++ {
		k := key(i) // ascending
		v := val(i)
		tr.Put(k, v)
		payload += len(k) + len(v) + 4 + 2
	}
	fill := float64(payload) / float64(tr.DiskBytes())
	if fill < 0.85 {
		t.Errorf("sequential fill factor = %.2f, want >= 0.85", fill)
	}
	// And the data is still correct.
	for i := 0; i < 30000; i += 997 {
		v, ok, _ := tr.Get(key(i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("get %d after sequential load", i)
		}
	}
}
