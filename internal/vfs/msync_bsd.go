//go:build darwin || dragonfly || freebsd || openbsd

package vfs

import (
	"syscall"
	"unsafe"
)

// syncViews msyncs the file's writable mappings: on these systems fsync
// need not write back pages dirtied through a mapping.
func (f *osFile) syncViews() error {
	if !f.writable {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.maps {
		if _, _, errno := syscall.Syscall(syscall.SYS_MSYNC, uintptr(unsafe.Pointer(&m[0])), uintptr(len(m)), syscall.MS_SYNC); errno != 0 {
			return errno
		}
	}
	return nil
}
