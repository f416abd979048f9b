//go:build !unix

package vfs

type mapper struct{} // no mmap: a view is a copy

func (f *osFile) View(off, n int64) ([]byte, error) {
	p := make([]byte, n)
	_, err := f.ReadAt(p, off)
	return p, err
}
