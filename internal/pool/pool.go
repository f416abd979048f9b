// Package pool holds the one worker fan-out the algorithms use to keep the
// hardware busy: a chunked loop over an index range.
package pool

import (
	"runtime"
	"sync"
)

// ParallelFor runs fn over [0, n) in GOMAXPROCS contiguous chunks, one
// goroutine each, and returns when all are done; below 2048 items, or with
// one processor, it calls fn(0, n) inline.
func ParallelFor(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
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
