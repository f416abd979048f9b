// Package pool implements the statically allocated object pools of Sec 5.3 —
// production DBMS layers multiply allocation and GC penalties, so Aion
// minimizes memory allocation on the critical path with reusable byte
// buffers — and the worker fan-outs that keep the hardware busy: an ordered
// pipeline (stage.go) and a chunked loop over an index range.
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

// ParallelFor runs fn over [0, n) in DefaultWorkers contiguous chunks, one
// goroutine each, and returns when all are done; below 2048 items, or with
// one worker, it calls fn(0, n) inline.
func ParallelFor(n int, fn func(lo, hi int)) {
	workers := DefaultWorkers()
	if workers <= 1 || n < 2048 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}
