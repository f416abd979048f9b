package btree

import (
	"bytes"

	"aion/internal/pagecache"
)

// Cursor is the tree's one read primitive: a position among the leaf cells
// that one root-to-leaf descent establishes and Prev and Next then move.
// From Tree.Cursor to Close it holds the tree's read lock — writers wait (a
// long reader lets them in with Yield), other readers do not — and, while
// positioned, the pin of exactly one leaf, plus the root's from its first
// descent on, since every later one starts there. Key and Value alias that
// leaf: they are valid until the cursor next moves, yields or closes, and the
// caller copies what it keeps. A goroutine must not open a second cursor on
// the same tree while one is open (a writer queued between the two read locks
// would deadlock both), and must Close on every path. After an I/O error the
// cursor holds no leaf, every move reports false, and Err returns the error.
type Cursor struct {
	t    *Tree
	pid  pagecache.PageID
	page []byte // the pinned leaf; nil while unpositioned
	root []byte // the pinned root, once a descent has passed through it
	idx  int    // -1: before the leaf's first cell; nKeys: past the tree's last
	err  error
}

// Cursor opens an unpositioned read cursor.
func (t *Tree) Cursor() Cursor {
	t.mu.RLock()
	return Cursor{t: t}
}

// Close drops the pins and the read lock.
func (c *Cursor) Close() {
	c.unpin()
	if c.root != nil {
		c.t.pc.Release(c.t.root)
	}
	c.t.mu.RUnlock()
}

// Yield lets a waiting writer in: it drops the pins and the read lock, takes
// the lock again and leaves the cursor unpositioned.
func (c *Cursor) Yield() {
	c.Close()
	*c = Cursor{t: c.t, err: c.err}
	c.t.mu.RLock()
}

// Err returns the error that stopped the cursor, if any.
func (c *Cursor) Err() error { return c.err }

// Key returns the current cell's key; the cursor must be on a cell.
func (c *Cursor) Key() []byte { return leafCellKey(c.page, slotOff(c.page, c.idx)) }

// Value returns the current cell's value; the cursor must be on a cell.
func (c *Cursor) Value() []byte { return leafCellVal(c.page, slotOff(c.page, c.idx)) }

func (c *Cursor) unpin() {
	if c.page != nil {
		c.t.pc.Release(c.pid)
		c.page = nil
	}
}

// SeekFloor moves to the largest key <= target with one descent and reports
// whether there is one. When there is none the cursor rests before the
// tree's smallest key, so that Next yields it.
func (c *Cursor) SeekFloor(target []byte) bool {
	c.unpin()
	if c.err != nil || c.descend(c.t.root, target, false) {
		return c.err == nil
	}
	for pid := c.t.root; c.err == nil; {
		p, err := c.t.pc.Get(pid)
		if err != nil {
			c.err = err
			break
		}
		if isLeaf(p) {
			c.pid, c.page, c.idx = pid, p, -1
			break
		}
		left := pagecache.PageID(extra(p))
		c.t.pc.Release(pid)
		pid = left
	}
	return false
}

// descend pins the leaf under pid that holds the largest key <= target (or,
// when strict, < target) and points the cursor at that cell.
func (c *Cursor) descend(pid pagecache.PageID, target []byte, strict bool) bool {
	p := c.root
	if pid != c.t.root || p == nil {
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
			c.t.pc.Release(pid)
			return false
		}
		c.pid, c.page, c.idx = pid, p, i
		return true
	}
	if exact && !strict {
		i++ // the separator's own child holds target
	}
	found := false
	for ; i >= 0 && !found && c.err == nil; i-- {
		// A subtree may hold nothing that small (deletes do not rebalance):
		// the one before it then holds only smaller keys.
		found = c.descend(childAt(p, i), target, strict)
	}
	if pid == c.t.root {
		c.root = p
	} else {
		c.t.pc.Release(pid)
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
		p, err := c.t.pc.Get(next)
		c.unpin()
		if err != nil {
			c.err = err
			return false
		}
		c.pid, c.page, c.idx = next, p, -1
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
	old, bound := c.pid, aboveAll // old stays pinned through the descent: the bound aliases it
	if nKeys(c.page) > 0 {
		bound = c.Key()
	}
	if !c.descend(c.t.root, bound, true) {
		if c.err != nil {
			c.unpin()
		} else {
			c.idx = -1 // this was the tree's smallest key
		}
		return false
	}
	c.t.pc.Release(old)
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
