// Package pool implements the statically allocated object pools of Sec 5.3:
// production DBMS layers multiply allocation and GC penalties, so Aion
// minimizes memory allocation on the critical path with reusable byte
// buffers, per-worker scratch pools, and pre-allocated ring buffers in
// place of queues.
package pool

import "sync"

// Bytes is a pool of byte slices for encode/decode scratch on the critical
// path (disk operations, record encoding).
type Bytes struct {
	p sync.Pool
}

// NewBytes creates a pool handing out slices with the given initial
// capacity.
func NewBytes(capacity int) *Bytes {
	b := &Bytes{}
	b.p.New = func() interface{} {
		s := make([]byte, 0, capacity)
		return &s
	}
	return b
}

// Get returns an empty slice (possibly with recycled capacity).
func (b *Bytes) Get() *[]byte {
	s := b.p.Get().(*[]byte)
	*s = (*s)[:0]
	return s
}

// Put recycles the slice.
func (b *Bytes) Put(s *[]byte) { b.p.Put(s) }

// Ring is a fixed-capacity circular buffer of pre-allocated int64 slots,
// replacing allocation-heavy queue types in traversal hot loops (Sec 5.3:
// "queues are replaced with circular buffers of pre-allocated objects").
// The zero Ring is not usable; construct with NewRing. Not safe for
// concurrent use — each worker thread keeps its own (per-worker pools
// avoid contention).
type Ring struct {
	buf        []int64
	head, tail int
	size       int
}

// NewRing creates a ring with the given capacity (rounded up to 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]int64, capacity)}
}

// Push enqueues v, growing the ring if full (growth is rare once the ring
// is warm; the buffer is retained across uses).
func (r *Ring) Push(v int64) {
	if r.size == len(r.buf) {
		grown := make([]int64, 2*len(r.buf))
		n := copy(grown, r.buf[r.head:])
		copy(grown[n:], r.buf[:r.tail])
		r.buf = grown
		r.head, r.tail = 0, r.size
	}
	r.buf[r.tail] = v
	r.tail = (r.tail + 1) % len(r.buf)
	r.size++
}

// Pop dequeues the oldest element; ok is false when empty.
func (r *Ring) Pop() (v int64, ok bool) {
	if r.size == 0 {
		return 0, false
	}
	v = r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.size--
	return v, true
}
