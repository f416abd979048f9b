//go:build unix

package vfs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
)

// mapper serves an OS file's views from MAP_SHARED mappings, writable when
// the file is. A view never moves: a file that outgrows the newest mapping
// is mapped again at twice the length (at least 1 MiB of address space),
// and every mapping stays until Close.
type mapper struct {
	cur  atomic.Pointer[[]byte] // the newest mapping, read without mu
	mu   sync.Mutex
	maps [][]byte
}

func (f *osFile) View(off, n int64) ([]byte, error) {
	m := f.cur.Load()
	if m == nil || off < 0 || off+n > int64(len(*m)) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if size, err := f.Size(); err != nil || off < 0 || off+n > size {
			return nil, errors.Join(err, fmt.Errorf("vfs: view [%d, %d) of %s past its end", off, off+n, f.Name()))
		}
		if m = f.cur.Load(); m == nil || off+n > int64(len(*m)) {
			length := int64(1 << 20)
			if m != nil {
				length = 2 * int64(len(*m))
			}
			prot := syscall.PROT_READ
			if f.writable {
				prot |= syscall.PROT_WRITE
			}
			b, err := syscall.Mmap(int(f.Fd()), 0, int(max(length, off+n)), prot, syscall.MAP_SHARED)
			if err != nil {
				return nil, fmt.Errorf("vfs: map %s: %w", f.Name(), err)
			}
			f.maps, m = append(f.maps, b), &b
			f.cur.Store(m)
		}
	}
	return (*m)[off : off+n : off+n], nil
}

// Close unmaps every view first, so no truncate or remove after it can fault.
func (f *osFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var err error
	for _, m := range f.maps {
		err = errors.Join(err, syscall.Munmap(m))
	}
	f.maps = nil
	f.cur.Store(nil)
	return errors.Join(err, f.File.Close())
}
