package btree

import (
	"fmt"

	"aion/internal/pagecache"
)

type splitResult struct {
	sep   []byte
	right pagecache.PageID
}

// Put inserts or replaces the value under key.
func (t *Tree) Put(key, val []byte) error {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return fmt.Errorf("btree: key length %d out of range [1,%d]", len(key), MaxKeyLen)
	}
	if len(val) > MaxValLen {
		return fmt.Errorf("btree: value length %d exceeds %d", len(val), MaxValLen)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	split, added, err := t.insert(t.root, key, val)
	if err != nil {
		return err
	}
	if added {
		t.count++
	}
	if split != nil {
		// Grow the tree: new root with the old root as leftmost child.
		newRootID, root, err := t.pc.Allocate()
		if err != nil {
			return err
		}
		initPage(root, false)
		setExtra(root, uint64(t.root))
		off := writeIntCell(root, split.sep, uint64(split.right))
		insertSlot(root, 0, off)
		t.root = newRootID
	}
	return nil
}

func (t *Tree) insert(pid pagecache.PageID, key, val []byte) (*splitResult, bool, error) {
	p, err := t.pc.Get(pid)
	if err != nil {
		return nil, false, err
	}

	if isLeaf(p) {
		if p, err = t.pc.GetMut(pid); err != nil {
			return nil, false, err
		}
		i, exact := search(p, key)
		if exact {
			// Replace: drop the old slot (leaking its cell) and insert.
			removeSlot(p, i)
		}
		need := leafCellSize(len(key), len(val)) + slotSize
		if freeSpace(p) < need {
			compact(p)
		}
		if freeSpace(p) >= need {
			off := writeLeafCell(p, key, val)
			insertSlot(p, i, off)
			return nil, !exact, nil
		}
		split, err := t.splitLeaf(pid, p, i, key, val)
		return split, !exact, err
	}

	child := childAt(p, searchChildIdx(p, key))
	split, added, err := t.insert(child, key, val)
	if err != nil || split == nil {
		return nil, added, err
	}
	// Insert the promoted separator into this internal page.
	if p, err = t.pc.GetMut(pid); err != nil {
		return nil, added, err
	}
	i, _ := search(p, split.sep)
	need := 10 + len(split.sep) + slotSize
	if freeSpace(p) < need {
		compact(p)
	}
	if freeSpace(p) >= need {
		off := writeIntCell(p, split.sep, uint64(split.right))
		insertSlot(p, i, off)
		return nil, added, nil
	}
	up, err := t.splitInternal(pid, p, i, split)
	return up, added, err
}

// searchChildIdx returns the child index (0..nkeys) covering key: 0 is the
// leftmost child, i>0 means the child of cell i-1.
func searchChildIdx(p []byte, key []byte) int {
	i, exact := search(p, key)
	if exact {
		i++
	}
	return i
}

func childAt(p []byte, idx int) pagecache.PageID {
	if idx == 0 {
		return pagecache.PageID(extra(p))
	}
	return pagecache.PageID(intCellChild(p, slotOff(p, idx-1)))
}

// splitLeaf distributes the page's cells plus the pending (key,val) across
// the old page and a fresh right sibling, returning the separator. Both are
// written from one copy of the old page.
func (t *Tree) splitLeaf(pid pagecache.PageID, p []byte, insertAt int, key, val []byte) (*splitResult, error) {
	n := nKeys(p)
	var old [pageSize]byte
	copy(old[:], p)
	// cell i of the n+1 to distribute: the pending one sits at insertAt.
	cell := func(i int) (k, v []byte) {
		if i == insertAt {
			return key, val
		}
		if i > insertAt {
			i--
		}
		return leafCell(old[:], slotOff(old[:], i))
	}
	mid := (n + 1) / 2
	if insertAt == n {
		// Rightmost append (sequential inserts, e.g. time- or id-ordered
		// keys): leave the left page full and start a fresh right page,
		// which keeps fill near 100 % instead of 50 %.
		mid = n
	}
	rightID, right, err := t.pc.Allocate()
	if err != nil {
		return nil, err
	}
	initPage(right, true)
	setExtra(right, extra(p)) // chain: right inherits old next pointer
	initPage(p, true)
	setExtra(p, uint64(rightID))

	for i := 0; i < mid; i++ {
		k, v := cell(i)
		insertSlotAtEnd(p, i, writeLeafCell(p, k, v))
	}
	for i := mid; i <= n; i++ {
		k, v := cell(i)
		insertSlotAtEnd(right, i-mid, writeLeafCell(right, k, v))
	}
	sep, _ := cell(mid)
	return &splitResult{sep: append([]byte(nil), sep...), right: rightID}, nil
}

// insertSlotAtEnd appends slot i (cells are inserted in order during
// splits, so no shifting is needed).
func insertSlotAtEnd(p []byte, i, off int) {
	setSlotOff(p, i, off)
	setNKeys(p, i+1)
}

// splitInternal splits an internal page while inserting the pending
// separator, promoting the middle key.
func (t *Tree) splitInternal(pid pagecache.PageID, p []byte, insertAt int, pending *splitResult) (*splitResult, error) {
	n := nKeys(p)
	type cell struct {
		k     []byte
		child uint64
	}
	all := make([]cell, 0, n+1)
	for i := 0; i < n; i++ {
		off := slotOff(p, i)
		all = append(all, cell{
			k:     append([]byte(nil), intCellKey(p, off)...),
			child: intCellChild(p, off),
		})
	}
	all = append(all, cell{})
	copy(all[insertAt+1:], all[insertAt:])
	all[insertAt] = cell{k: pending.sep, child: uint64(pending.right)}

	mid := len(all) / 2
	promoted := all[mid]

	rightID, right, err := t.pc.Allocate()
	if err != nil {
		return nil, err
	}
	initPage(right, false)
	setExtra(right, promoted.child) // promoted key's child becomes right's leftmost

	leftmost := extra(p)
	initPage(p, false)
	setExtra(p, leftmost)

	for i, c := range all[:mid] {
		insertSlotAtEnd(p, i, writeIntCell(p, c.k, c.child))
	}
	for i, c := range all[mid+1:] {
		insertSlotAtEnd(right, i, writeIntCell(right, c.k, c.child))
	}
	return &splitResult{sep: promoted.k, right: rightID}, nil
}
