// Package vfs is the filesystem seam beneath Aion's stores. Every durable
// component (wal, pagecache, strstore, timestore snapshots) performs its
// I/O through the FS/File interfaces so that crash-consistency tests can
// substitute FaultFS — a deterministic fault-injecting, power-loss-
// simulating filesystem — while production code runs on the OS passthrough
// with zero behavioural change.
//
// The interface is deliberately narrow: random-access reads and writes,
// fsync, truncate, and the namespace operations (create, rename, remove,
// directory fsync) that atomic-persistence protocols such as
// write-tmp/fsync/rename/fsync-dir are built from.
package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is a random-access file handle.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Sync flushes the file's contents to stable storage.
	Sync() error
	// Truncate resizes the file.
	Truncate(size int64) error
	// Size returns the current file size in bytes.
	Size() (int64, error)
	// Name returns the path the file was opened with.
	Name() string
	// View returns the file's bytes [off, off+n) without a copy where the
	// platform allows: on an OS file a slice of a shared mapping, which
	// writes through any handle show. On a file opened read-write a write
	// to the slice is a write to the file, durable after Sync; on one
	// opened read-only the slice must never be written. The range must lie
	// within the file and, on FaultFS, within one 4 KiB page. The slice
	// stays valid until Close, however the file grows.
	View(off, n int64) ([]byte, error)
}

// FS is a filesystem. Paths are interpreted exactly as the OS would; the
// in-memory implementations treat them as opaque keys grouped by
// filepath.Dir.
type FS interface {
	// OpenFile opens path read-write, creating it if absent.
	OpenFile(path string) (File, error)
	// Create creates or truncates path and opens it read-write.
	Create(path string) (File, error)
	// Open opens an existing path read-only.
	Open(path string) (File, error)
	// Remove deletes path.
	Remove(path string) error
	// Rename atomically replaces newPath with oldPath.
	Rename(oldPath, newPath string) error
	// Stat returns the size of path, or an error satisfying
	// os.IsNotExist if it does not exist.
	Stat(path string) (int64, error)
	// ReadDir lists the base names of the entries directly under dir.
	ReadDir(dir string) ([]string, error)
	// SyncDir flushes the directory entries of dir to stable storage,
	// making prior creates, renames, and removes under it durable.
	SyncDir(dir string) error
	// MkdirAll ensures the directory path exists, with its parents. The
	// in-memory implementations have no directories and do nothing.
	MkdirAll(path string) error
}

// OS is the passthrough FS over the real filesystem.
var OS FS = osFS{}

// OrOS returns fs, or the OS passthrough when fs is nil — the idiom every
// store Options uses to default its FS field.
func OrOS(fs FS) FS {
	if fs == nil {
		return OS
	}
	return fs
}

type osFS struct{}

type osFile struct {
	*os.File
	mapper        // the views handed out; Close unmaps them before closing the file
	writable bool // opened read-write: its views are too
}

// Sync makes the file durable, what was written through its views included.
func (f *osFile) Sync() error {
	if err := f.syncViews(); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (osFS) OpenFile(path string) (File, error) { return openOS(path, os.O_CREATE|os.O_RDWR) }
func (osFS) Create(path string) (File, error)   { return openOS(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC) }
func (osFS) Open(path string) (File, error)     { return openOS(path, os.O_RDONLY) }

func openOS(path string, flag int) (File, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return &osFile{File: f, writable: flag&os.O_RDWR != 0}, nil
}

func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) Stat(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (osFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

// MkdirAll ensures path exists on fs. Stores call this for every
// subdirectory they open files under, so the one call shape works on both
// sides of the seam and through any FS that wraps another.
func MkdirAll(fs FS, path string) error { return fs.MkdirAll(path) }

// MkdirTemp creates a fresh scratch directory on the real filesystem (an
// os.MkdirTemp passthrough, with its dir/pattern contract). It is the
// sanctioned entry point for the stores' default-directory idiom — "no
// Dir and no FS given: run on a throwaway OS directory" — so that path
// stays visibly inside the vfs seam instead of each store calling os
// directly.
func MkdirTemp(dir, pattern string) (string, error) {
	return os.MkdirTemp(dir, pattern)
}

// CloseChecked closes f and joins any close error into *err, preserving
// an earlier error as the primary. It is the deferred form of the
// fail-stop rule: a dropped Close is a dropped write error, because the
// OS may surface a failed async writeback only at close time.
//
//	defer vfs.CloseChecked(f, &err)
func CloseChecked(f File, err *error) {
	if cerr := f.Close(); cerr != nil {
		*err = errors.Join(*err, cerr)
	}
}

// PublishFile makes data the content of path atomically: write path+".tmp",
// fsync it, rename it over path, fsync the directory. A crash at any point
// leaves the previous file or the new one under the live name.
func PublishFile(fs FS, path string, data []byte) (err error) {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.WriteAt(data, 0); err == nil {
		err = f.Sync()
	}
	if CloseChecked(f, &err); err != nil {
		return err
	}
	if err = fs.Rename(tmp, path); err != nil {
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// SeqWriter adapts a File to io.Writer for sequential appenders (bufio
// over an append-only file). Off is advanced by each write.
type SeqWriter struct {
	F   File
	Off int64
}

func (w *SeqWriter) Write(p []byte) (int, error) {
	n, err := w.F.WriteAt(p, w.Off)
	w.Off += int64(n)
	return n, err
}

// dirOf groups in-memory namespace entries the way SyncDir scopes them.
func dirOf(path string) string { return filepath.Dir(path) }
