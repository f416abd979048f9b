package btree

import (
	"bytes"

	"aion/internal/pagecache"
)

// Cursor is the tree's one read primitive: a position among the leaf cells
// that one root-to-leaf descent establishes and Prev and Next then move.
// From Tree.Cursor to Close it holds the tree's read lock — writers wait (a
// long reader lets them in with Yield), other readers do not — and keeps the
// root page from its first descent on, since every later one starts there.
// Key, Value and Cell alias the leaf's page, which is the file's own mapping
// and which no writer changes while the cursor holds the lock: they stay
// valid as the cursor moves on, until it yields or closes, and the caller
// copies what it keeps longer. A goroutine
// must not open a second cursor on the same tree while one is open (a writer
// queued between the two read locks would deadlock both), and must Close on
// every path. After an I/O error the cursor holds no leaf, every move reports
// false, and Err returns the error.
type Cursor struct {
	// Descents and Gets count the cursor's root-to-leaf descents and its
	// page-cache accesses since it opened (a profile reads them at Close).
	Descents, Gets int

	t    *Tree
	page []byte // the current leaf; nil while unpositioned
	root []byte // the root, once a descent has passed through it
	idx  int    // -1: before the leaf's first cell; nKeys: past the tree's last
	err  error
}

// Cursor opens an unpositioned read cursor.
func (t *Tree) Cursor() Cursor {
	t.mu.RLock()
	return Cursor{t: t}
}

// Close drops the read lock.
func (c *Cursor) Close() {
	c.page, c.root = nil, nil
	c.t.mu.RUnlock()
}

// Yield lets a waiting writer in: it drops the read lock, takes it again and
// leaves the cursor unpositioned.
func (c *Cursor) Yield() {
	c.Close()
	*c = Cursor{Descents: c.Descents, Gets: c.Gets, t: c.t, err: c.err}
	c.t.mu.RLock()
}

// Err returns the error that stopped the cursor, if any.
func (c *Cursor) Err() error { return c.err }

// Key returns the current cell's key; the cursor must be on a cell.
func (c *Cursor) Key() []byte {
	k, _ := c.Cell()
	return k
}

// Value returns the current cell's value; the cursor must be on a cell.
func (c *Cursor) Value() []byte {
	_, v := c.Cell()
	return v
}

// Cell returns the current cell's key and value; the cursor must be on a
// cell.
func (c *Cursor) Cell() (k, v []byte) { return leafCell(c.page, slotOff(c.page, c.idx)) }

// SeekFloor moves to the largest key <= target and reports whether there is
// one. When the cursor is on a cell of a leaf that holds that key, it looks
// there first (finger): from the current cell outward, doubling its step, then
// a binary search of the bracket found — a scan that seeks from one entity to
// the next mostly moves a few cells and reads no page. Otherwise it takes one
// descent. When there is no floor the cursor rests before the tree's smallest
// key, so that Next yields it.
func (c *Cursor) SeekFloor(target []byte) bool {
	if c.page != nil && c.err == nil && c.finger(target) {
		return true
	}
	c.page = nil
	if c.err != nil || c.descend(c.t.root, target, false) {
		return c.err == nil
	}
	for pid := c.t.root; c.err == nil; {
		c.Gets++
		p, err := c.t.pc.Get(pid)
		if err != nil {
			c.err = err
			break
		}
		if isLeaf(p) {
			c.page, c.idx = p, -1
			break
		}
		pid = pagecache.PageID(extra(p))
	}
	return false
}

// finger finds target's floor in the held leaf, from the current cell
// outward in doubling steps, then by bisection, and reports whether the leaf
// is known to hold it: not when target lies below the leaf's first key or
// above its last.
func (c *Cursor) finger(target []byte) bool {
	n := nKeys(c.page)
	if c.idx < 0 || c.idx >= n {
		return false
	}
	cmpAt := func(i int) int {
		k, _ := leafCell(c.page, slotOff(c.page, i))
		return bytes.Compare(k, target)
	}
	lo, hi := c.idx, c.idx+1 // key(lo) <= target < key(hi), hi == n: not known
	for step := 1; cmpAt(lo) > 0; step *= 2 {
		if lo == 0 {
			return false
		}
		lo, hi = max(lo-step, 0), lo
	}
	for step := 1; hi < n && cmpAt(hi) <= 0; step *= 2 {
		lo, hi = hi, min(hi+step, n)
	}
	if hi == n {
		if d := cmpAt(n - 1); d < 0 {
			return false // a later leaf may hold keys up to target
		} else if d == 0 {
			lo = n - 1
		}
		hi = n - 1
	}
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; cmpAt(mid) > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	c.idx = lo
	return true
}

// descend finds the leaf under pid that holds the largest key <= target (or,
// when strict, < target) and points the cursor at that cell.
func (c *Cursor) descend(pid pagecache.PageID, target []byte, strict bool) bool {
	if pid == c.t.root {
		c.Descents++
	}
	p := c.root
	if pid != c.t.root || p == nil {
		c.Gets++
		var err error
		if p, err = c.t.pc.Get(pid); err != nil {
			c.err = err
			return false
		}
	}
	i, exact := search(p, target)
	if isLeaf(p) {
		if !exact || strict {
			i--
		}
		if i < 0 {
			return false
		}
		c.page, c.idx = p, i
		return true
	}
	if exact && !strict {
		i++ // the separator's own child holds target
	}
	found := false
	for ; i >= 0 && !found && c.err == nil; i-- {
		// A subtree may hold nothing that small (an empty leaf: pages are never rebalanced):
		// the one before it then holds only smaller keys.
		found = c.descend(childAt(p, i), target, strict)
	}
	if pid == c.t.root {
		c.root = p
	}
	return found
}

// Next moves to the following cell along the leaf chain, skipping empty
// leaves, and reports whether there is one.
func (c *Cursor) Next() bool {
	if c.page == nil {
		return false
	}
	for c.idx+1 >= nKeys(c.page) {
		next := pagecache.PageID(extra(c.page))
		if next == 0 {
			c.idx = nKeys(c.page)
			return false
		}
		c.Gets++
		p, err := c.t.pc.Get(next)
		if err != nil {
			c.page, c.err = nil, err
			return false
		}
		c.page, c.idx = p, -1
	}
	c.idx++
	return true
}

// aboveAll sorts after every key a tree can hold.
var aboveAll = bytes.Repeat([]byte{0xff}, MaxKeyLen+1)

// Prev moves to the preceding cell and reports whether there is one. Leaves
// link forwards only: stepping off a leaf's first cell costs one descent,
// for the largest key below it — below everything when Next ran off the tree
// onto an empty last leaf, which has no cell to step from.
func (c *Cursor) Prev() bool {
	if c.page == nil || c.idx < 0 {
		return false
	}
	if c.idx > 0 {
		c.idx--
		return true
	}
	bound := aboveAll
	if nKeys(c.page) > 0 {
		bound = c.Key()
	}
	if !c.descend(c.t.root, bound, true) {
		if c.err != nil {
			c.page = nil
		} else {
			c.idx = -1 // this was the tree's smallest key
		}
		return false
	}
	return true
}

// Get returns a copy of the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	c := t.Cursor()
	defer c.Close()
	if c.SeekFloor(key) && bytes.Equal(c.Key(), key) {
		return append([]byte(nil), c.Value()...), true, nil
	}
	return nil, false, c.Err()
}

// Scan calls fn for each entry with low <= key < high in key order. A nil
// low starts at the smallest key; a nil high scans to the end. The key and
// value slices passed to fn alias page memory and are only valid during the
// callback; fn must copy them to retain. Scanning stops early when fn
// returns false.
func (t *Tree) Scan(low, high []byte, fn func(k, v []byte) bool) error {
	c := t.Cursor()
	defer c.Close()
	ok := c.SeekFloor(low) && bytes.Equal(c.Key(), low)
	for ok = ok || c.Next(); ok; ok = c.Next() {
		if high != nil && bytes.Compare(c.Key(), high) >= 0 || !fn(c.Key(), c.Value()) {
			break
		}
	}
	return c.Err()
}

// First returns copies of the smallest entry, if any.
func (t *Tree) First() (k, v []byte, ok bool, err error) {
	err = t.Scan(nil, nil, func(key, val []byte) bool {
		k = append([]byte(nil), key...)
		v = append([]byte(nil), val...)
		ok = true
		return false
	})
	return k, v, ok, err
}
