package btree

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aion/internal/pagecache"
	"aion/internal/testkit/vfstest"
)

// memCache opens a page cache over a file of its own in-memory filesystem.
func memCache() *pagecache.Cache {
	c, err := pagecache.OpenFS(vfstest.NewFaultFS(), "mem.idx")
	if err != nil {
		panic(err) // a fresh FaultFS has no fault armed
	}
	return c
}

func newTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := Open(memCache())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPutGetBasic(t *testing.T) {
	tr := newTree(t)
	if err := tr.Put([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get([]byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q %v %v", v, ok, err)
	}
	if _, ok, _ := tr.Get([]byte("zzz")); ok {
		t.Error("missing key found")
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestPutReplace(t *testing.T) {
	tr := newTree(t)
	tr.Put([]byte("k"), []byte("old"))
	tr.Put([]byte("k"), []byte("new"))
	v, ok, _ := tr.Get([]byte("k"))
	if !ok || string(v) != "new" {
		t.Errorf("got %q", v)
	}
	if tr.Len() != 1 {
		t.Errorf("replace must not grow Len: %d", tr.Len())
	}
}

func TestPutValidation(t *testing.T) {
	tr := newTree(t)
	if err := tr.Put(nil, []byte("v")); err == nil {
		t.Error("empty key must fail")
	}
	if err := tr.Put(make([]byte, MaxKeyLen+1), nil); err == nil {
		t.Error("oversized key must fail")
	}
	if err := tr.Put([]byte("k"), make([]byte, MaxValLen+1)); err == nil {
		t.Error("oversized value must fail")
	}
	if err := tr.Put([]byte("k"), make([]byte, MaxValLen)); err != nil {
		t.Errorf("max-size value must succeed: %v", err)
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("val-%d", i)) }

func TestManyInsertsAscending(t *testing.T) {
	tr := newTree(t)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok, err := tr.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("get %d: %q %v %v", i, v, ok, err)
		}
	}
}

func TestManyInsertsRandomOrder(t *testing.T) {
	tr := newTree(t)
	const n = 5000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok, _ := tr.Get(key(i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("get %d failed", i)
		}
	}
}

func TestScanRangeAndOrder(t *testing.T) {
	tr := newTree(t)
	const n = 2000
	for _, i := range rand.New(rand.NewSource(3)).Perm(n) {
		tr.Put(key(i), val(i))
	}
	var got []string
	err := tr.Scan(key(100), key(200), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("scan returned %d entries, want 100", len(got))
	}
	if !sort.StringsAreSorted(got) {
		t.Error("scan must be ordered")
	}
	if got[0] != string(key(100)) || got[99] != string(key(199)) {
		t.Errorf("bounds: first %s last %s", got[0], got[99])
	}
}

func TestScanEarlyStopAndFullScan(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 100; i++ {
		tr.Put(key(i), val(i))
	}
	count := 0
	tr.Scan(nil, nil, func(k, v []byte) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop at %d", count)
	}
	count = 0
	tr.Scan(nil, nil, func(k, v []byte) bool { count++; return true })
	if count != 100 {
		t.Errorf("full scan = %d", count)
	}
}

// seekFloor returns copies of the largest entry with key <= target.
func seekFloor(tr *Tree, target []byte) (k, v []byte, ok bool, err error) {
	c := tr.Cursor()
	defer c.Close()
	if ok = c.SeekFloor(target); ok {
		k, v = append([]byte(nil), c.Key()...), append([]byte(nil), c.Value()...)
	}
	return k, v, ok, c.Err()
}

func TestSeekFloor(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 1000; i += 10 {
		tr.Put(key(i), val(i))
	}
	k, v, ok, err := seekFloor(tr, key(55))
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if !bytes.Equal(k, key(50)) || !bytes.Equal(v, val(50)) {
		t.Errorf("floor(55) = %s", k)
	}
	// Exact hit.
	k, _, ok, _ = seekFloor(tr, key(70))
	if !ok || !bytes.Equal(k, key(70)) {
		t.Errorf("floor(70) = %s", k)
	}
	// Below minimum.
	_, _, ok, _ = seekFloor(tr, []byte("a"))
	if ok {
		t.Error("floor below min must be absent")
	}
	// Above maximum.
	k, _, ok, _ = seekFloor(tr, []byte("zzzz"))
	if !ok || !bytes.Equal(k, key(990)) {
		t.Errorf("floor(max) = %s", k)
	}
}

func TestSeekFloorAfterDeletions(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 2000; i++ {
		tr.Put(key(i), val(i))
	}
	// Empty a whole band so the floor search has to backtrack across
	// subtrees.
	dropKeys(t, tr, key(1000), key(1900))
	k, _, ok, err := seekFloor(tr, key(1895))
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if !bytes.Equal(k, key(999)) {
		t.Errorf("floor across deleted band = %s, want %s", k, key(999))
	}
}

func TestFirst(t *testing.T) {
	tr := newTree(t)
	if _, _, ok, _ := tr.First(); ok {
		t.Error("empty tree has no first")
	}
	tr.Put(key(5), val(5))
	tr.Put(key(1), val(1))
	k, _, ok, _ := tr.First()
	if !ok || !bytes.Equal(k, key(1)) {
		t.Errorf("First = %s", k)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.db")
	pc, err := pagecache.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(pc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}

	pc2, err := pagecache.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Close()
	tr2, err := Open(pc2)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != n {
		t.Fatalf("reopened Len = %d, want %d", tr2.Len(), n)
	}
	for i := 0; i < n; i += 97 {
		v, ok, err := tr2.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("reopened get %d: %v %v", i, ok, err)
		}
	}
}

func TestOutOfCoreSmallCache(t *testing.T) {
	// The tree lives in its file: inserts and scans hold no page on the heap.
	pc := memCache()
	tr, err := Open(pc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	prev := []byte(nil)
	err = tr.Scan(nil, nil, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("out of order at %d", count)
		}
		prev = append(prev[:0], k...)
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan count = %d, want %d", count, n)
	}
}

// TestRandomizedAgainstReferenceModel drives the tree with a random op mix
// and cross-checks every result against a plain map (property-based model
// test of the Put/Get/Scan invariants).
func TestRandomizedAgainstReferenceModel(t *testing.T) {
	tr := newTree(t)
	ref := map[string]string{}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 20000; step++ {
		k := key(rng.Intn(3000))
		switch rng.Intn(3) {
		case 0, 1: // put
			v := val(rng.Intn(1 << 20))
			if err := tr.Put(k, v); err != nil {
				t.Fatal(err)
			}
			ref[string(k)] = string(v)
		case 2: // get
			v, ok, err := tr.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := ref[string(k)]
			if ok != wantOK || (ok && string(v) != want) {
				t.Fatalf("step %d: get %s = %q/%v, want %q/%v", step, k, v, ok, want, wantOK)
			}
		}
	}
	if int(tr.Len()) != len(ref) {
		t.Fatalf("Len = %d, ref %d", tr.Len(), len(ref))
	}
	// Final full-order check.
	want := make([]string, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	sort.Strings(want)
	i := 0
	tr.Scan(nil, nil, func(k, v []byte) bool {
		if i >= len(want) || string(k) != want[i] || string(v) != ref[want[i]] {
			t.Fatalf("scan mismatch at %d: %s", i, k)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("scan visited %d, want %d", i, len(want))
	}
}

func BenchmarkPut(b *testing.B) {
	tr, _ := Open(memCache())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Put(key(i), val(i))
	}
}

func BenchmarkGet(b *testing.B) {
	tr, _ := Open(memCache())
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Put(key(i), val(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % n))
	}
}

// TestLeafRewriteAllocations pins what compaction and a leaf split allocate:
// both rewrite from one stack copy of the page rather than copying every cell
// to the heap (two allocations a cell, some 400 for a page of these entries).
// A split is left with the new page, which the in-memory file allocates, the
// separator and the split result.
func TestLeafRewriteAllocations(t *testing.T) {
	tr := newTree(t)
	p, err := tr.pc.GetMut(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	k, v := []byte("k-000-padding"), []byte{0}
	for i := 0; freeSpace(p) >= leafCellSize(len(k), len(v))+slotSize; i++ {
		copy(k[2:], fmt.Sprintf("%03d", 2*i))
		insertSlot(p, i, writeLeafCell(p, k, v))
	}
	full := append([]byte(nil), p...)
	if n := testing.AllocsPerRun(20, func() { compact(p) }); n != 0 {
		t.Errorf("compact allocates %.0f times, want 0", n)
	}
	if !bytes.Equal(p, full) {
		t.Error("compacting a page without dead cells changed it")
	}
	copy(k[2:], "101") // lands mid-page
	at, _ := search(p, k)
	n := testing.AllocsPerRun(20, func() {
		copy(p, full)
		if _, err := tr.splitLeaf(tr.root, p, at, k, v); err != nil {
			t.Fatal(err)
		}
	})
	if n > 3 {
		t.Errorf("a leaf split of %d cells allocates %.0f times, want at most 3", nKeys(full), n)
	}
}

// TestLeafPageGolden pins a leaf page's bytes: a disk format (the AIONBTR4
// trees). The header — flags, key count, cell start, next leaf — and the slot
// directory lead; each cell, packed from the page end, is klen uvarint | vlen
// uvarint | key | value.
func TestLeafPageGolden(t *testing.T) {
	p := make([]byte, pageSize)
	initPage(p, true)
	setExtra(p, 7)
	insertSlot(p, 0, writeLeafCell(p, []byte("b"), []byte("value")))
	insertSlot(p, 0, writeLeafCell(p, []byte("a"), bytes.Repeat([]byte{0xee}, 130))) // a two-byte vlen
	head := hex.EncodeToString(p[:headerSize+2*slotSize])
	cells := hex.EncodeToString(p[cellStart(p):])
	if want := "0100020f7200000000000000070f720ff8"; head != want {
		t.Errorf("header and slots %s, want %s", head, want)
	}
	if want := "01820161" + strings.Repeat("ee", 130) + "010562" + hex.EncodeToString([]byte("value")); cells != want {
		t.Errorf("cells %s, want %s", cells, want)
	}
	if k, v := leafCell(p, slotOff(p, 1)); string(k) != "b" || string(v) != "value" {
		t.Errorf("cell 1 reads back as %q, %q", k, v)
	}
}

// Len returns the number of entries.
func (t *Tree) Len() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}
