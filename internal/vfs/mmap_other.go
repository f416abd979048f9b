//go:build !unix

package vfs

import (
	"errors"
	"sync"
)

// mapper has no mmap here: a view is a heap copy of its range that the file
// keeps, so that it stays one page however often it is taken, and writes
// back on Sync and Close when the file is writable. A WriteAt over a kept
// range is overwritten by that write-back.
type mapper struct {
	mu    sync.Mutex
	views map[int64][]byte // by offset
}

func (f *osFile) View(off, n int64) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p, ok := f.views[off]; ok && int64(len(p)) == n {
		return p, nil
	}
	p := make([]byte, n)
	if _, err := f.ReadAt(p, off); err != nil {
		return nil, err
	}
	if f.views == nil {
		f.views = make(map[int64][]byte)
	}
	f.views[off] = p
	return p, nil
}

// syncViews writes the kept views back to the file.
func (f *osFile) syncViews() error {
	if !f.writable {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for off, p := range f.views {
		if _, err := f.WriteAt(p, off); err != nil {
			return err
		}
	}
	return nil
}

func (f *osFile) Close() error {
	return errors.Join(f.syncViews(), f.File.Close())
}
