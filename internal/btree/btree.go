// Package btree implements a disk-backed B+Tree over a page cache, standing
// in for the Neo4j B+Tree the paper backs Aion's stores with (Sec 5):
// sorted composite byte keys, O(log n) lookups, range scans, out-of-core
// storage, and seamless integration with the page cache.
//
// Pages are slotted: a 13-byte header, a sorted slot directory growing
// upward, and variable-size cells growing downward from the page end.
// Leaves are singly linked left-to-right for range scans. The temporal
// stores only append, so there is no delete; a replacing Put drops the old
// slot and leaks its cell, which compaction reclaims when an insert needs
// room. Reads take pages with Get, writes with GetMut.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"aion/internal/pagecache"
)

const (
	pageSize   = pagecache.PageSize
	headerSize = 13 // flags(1) nkeys(2) cellStart(2) extra(8)
	slotSize   = 2

	flagLeaf = 0x01

	metaMagic = 0x41494f4e42545234 // "AIONBTR4"

	// MaxKeyLen and MaxValLen bound entry sizes so that at least two
	// cells always fit in a page, which the split logic requires.
	MaxKeyLen = 512
	MaxValLen = 1280
)

// Tree is a B+Tree keyed by arbitrary byte strings compared with
// bytes.Compare. It is safe for concurrent use: writers exclude each other
// and readers; readers run concurrently.
type Tree struct {
	mu    sync.RWMutex
	pc    *pagecache.Cache
	meta  pagecache.PageID
	root  pagecache.PageID
	count uint64
}

// Open creates a new tree in an empty cache or reopens an existing one.
func Open(pc *pagecache.Cache) (*Tree, error) {
	t := &Tree{pc: pc}
	if pc.PageCount() == 0 {
		metaID, meta, err := pc.Allocate()
		if err != nil {
			return nil, err
		}
		rootID, root, err := pc.Allocate()
		if err != nil {
			return nil, err
		}
		initPage(root, true)
		t.meta, t.root = metaID, rootID
		t.writeMeta(meta)
		return t, nil
	}
	meta, err := pc.Get(0)
	if err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint64(meta) != metaMagic {
		return nil, fmt.Errorf("btree: bad meta magic")
	}
	t.meta = 0
	t.root = pagecache.PageID(binary.BigEndian.Uint64(meta[8:]))
	t.count = binary.BigEndian.Uint64(meta[16:])
	if t.root >= pagecache.PageID(pc.PageCount()) {
		// The meta survived but the file lost the root page (truncation by
		// a crash): the tree is unrecoverable.
		return nil, fmt.Errorf("btree: root page %d beyond file end (%d pages)", t.root, pc.PageCount())
	}
	return t, nil
}

func (t *Tree) writeMeta(meta []byte) {
	binary.BigEndian.PutUint64(meta, metaMagic)
	binary.BigEndian.PutUint64(meta[8:], uint64(t.root))
	binary.BigEndian.PutUint64(meta[16:], t.count)
}

// Flush writes the metadata and makes every page written durable.
func (t *Tree) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	meta, err := t.pc.GetMut(t.meta)
	if err != nil {
		return err
	}
	t.writeMeta(meta)
	return t.pc.Flush()
}

// Len returns the number of entries.
func (t *Tree) Len() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// DiskBytes reports the bytes consumed by the tree's pages.
func (t *Tree) DiskBytes() int64 { return t.pc.DiskBytes() }

// --- page primitives -------------------------------------------------------

func initPage(p []byte, leaf bool) {
	for i := range p[:headerSize] {
		p[i] = 0
	}
	if leaf {
		p[0] = flagLeaf
	}
	setNKeys(p, 0)
	setCellStartRaw(p, pageSize)
}

func isLeaf(p []byte) bool     { return p[0]&flagLeaf != 0 }
func nKeys(p []byte) int       { return int(binary.BigEndian.Uint16(p[1:])) }
func setNKeys(p []byte, n int) { binary.BigEndian.PutUint16(p[1:], uint16(n)) }
func cellStart(p []byte) int   { return int(binary.BigEndian.Uint16(p[3:])) }

// extra holds the next-leaf pointer for leaves and the leftmost child for
// internal pages.
func extra(p []byte) uint64       { return binary.BigEndian.Uint64(p[5:]) }
func setExtra(p []byte, v uint64) { binary.BigEndian.PutUint64(p[5:], v) }

func slotOff(p []byte, i int) int { return int(binary.BigEndian.Uint16(p[headerSize+i*slotSize:])) }
func setSlotOff(p []byte, i, off int) {
	binary.BigEndian.PutUint16(p[headerSize+i*slotSize:], uint16(off))
}

// leaf cell: klen uvarint | vlen uvarint | key | value. Under MaxKeyLen and
// MaxValLen each length takes one or two bytes.
func leafCellSize(klen, vlen int) int { return uvarintLen(klen) + uvarintLen(vlen) + klen + vlen }

func uvarintLen(n int) int {
	if n < 1<<7 {
		return 1
	}
	return 2
}

// leafCell returns the key and value of the leaf cell at off.
func leafCell(p []byte, off int) (key, val []byte) {
	klen, off := cellLen(p, off)
	vlen, off := cellLen(p, off)
	return p[off : off+klen], p[off+klen : off+klen+vlen]
}

// cellLen reads the one- or two-byte length at off and returns the offset
// after it.
func cellLen(p []byte, off int) (int, int) {
	if b := int(p[off]); b < 0x80 {
		return b, off + 1
	}
	return int(p[off]&0x7f) | int(p[off+1])<<7, off + 2
}

// internal cell: klen u16 | child u64 | key
func intCellKey(p []byte, off int) []byte {
	klen := int(binary.BigEndian.Uint16(p[off:]))
	return p[off+10 : off+10+klen]
}

func intCellChild(p []byte, off int) uint64 { return binary.BigEndian.Uint64(p[off+2:]) }

func freeSpace(p []byte) int {
	return cellStart(p) - headerSize - nKeys(p)*slotSize
}

// search returns the index of the first slot whose key is >= key, and
// whether an exact match was found at that index.
func search(p []byte, key []byte) (int, bool) {
	leaf := isLeaf(p)
	lo, hi := 0, nKeys(p)
	for lo < hi {
		mid := (lo + hi) / 2
		var k []byte
		if leaf {
			k, _ = leafCell(p, slotOff(p, mid))
		} else {
			k = intCellKey(p, slotOff(p, mid))
		}
		switch bytes.Compare(k, key) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// insertSlot shifts the slot directory to make room at index i.
func insertSlot(p []byte, i, off int) {
	n := nKeys(p)
	copy(p[headerSize+(i+1)*slotSize:headerSize+(n+1)*slotSize],
		p[headerSize+i*slotSize:headerSize+n*slotSize])
	setSlotOff(p, i, off)
	setNKeys(p, n+1)
}

// removeSlot drops the slot at index i (cell bytes are leaked until
// compaction).
func removeSlot(p []byte, i int) {
	n := nKeys(p)
	copy(p[headerSize+i*slotSize:headerSize+(n-1)*slotSize],
		p[headerSize+(i+1)*slotSize:headerSize+n*slotSize])
	setNKeys(p, n-1)
}

// writeLeafCell appends a leaf cell to the cell area and returns its offset.
func writeLeafCell(p []byte, key, val []byte) int {
	off := cellStart(p) - leafCellSize(len(key), len(val))
	n := off + binary.PutUvarint(p[off:], uint64(len(key)))
	n += binary.PutUvarint(p[n:], uint64(len(val)))
	copy(p[n+copy(p[n:], key):], val)
	setCellStartRaw(p, off)
	return off
}

// writeIntCell appends an internal cell and returns its offset.
func writeIntCell(p []byte, key []byte, child uint64) int {
	size := 10 + len(key)
	off := cellStart(p) - size
	binary.BigEndian.PutUint16(p[off:], uint16(len(key)))
	binary.BigEndian.PutUint64(p[off+2:], child)
	copy(p[off+10:], key)
	setCellStartRaw(p, off)
	return off
}

func setCellStartRaw(p []byte, n int) { binary.BigEndian.PutUint16(p[3:], uint16(n)) }

// compact rewrites all live cells packed at the page end, reclaiming space
// leaked by removed or replaced cells.
func compact(p []byte) {
	var old [pageSize]byte
	copy(old[:], p)
	leaf := isLeaf(p)
	setCellStartRaw(p, pageSize)
	for i, n := 0, nKeys(p); i < n; i++ {
		off := slotOff(old[:], i)
		if leaf {
			k, v := leafCell(old[:], off)
			off = writeLeafCell(p, k, v)
		} else {
			off = writeIntCell(p, intCellKey(old[:], off), intCellChild(old[:], off))
		}
		setSlotOff(p, i, off)
	}
}
