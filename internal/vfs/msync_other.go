//go:build unix && !(darwin || dragonfly || freebsd || openbsd)

package vfs

// syncViews does nothing: Linux's fsync writes back the pages dirtied
// through the file's shared mappings too.
func (f *osFile) syncViews() error { return nil }
