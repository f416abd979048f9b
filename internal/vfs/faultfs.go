package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// ErrInjected is the error every injected fault returns.
var ErrInjected = errors.New("vfs: injected fault")

// FaultFS is an in-memory FS with deterministic fault injection and
// power-loss simulation, the substrate of the crash-recovery harness.
//
// Durability model (strictest reading of POSIX):
//   - File contents are durable only up to the last successful Sync; a
//     Crash reverts every file to its synced image. That covers writes
//     through a View too: they are current at once, durable after Sync.
//   - Namespace operations (create, rename, remove) are durable only after
//     a successful SyncDir of the parent directory; a Crash reverts the
//     namespace to its last dir-synced state. A file whose name was never
//     dir-synced vanishes entirely, however much of its content was synced.
//
// A file is held as 4 KiB pages that never move, so that a view taken
// before the file grows still writes the file's bytes, as a shared mapping
// of an OS file does.
//
// Fault injection: every mutating operation (WriteAt, Sync, Truncate,
// creation, Rename, Remove, SyncDir) increments an operation counter; once
// the counter reaches the index set with SetFailAfter, that operation and
// all later mutating operations fail with ErrInjected — the disk is gone,
// which also exercises the stores' fail-stop paths. A write through a view
// is no operation: the kernel, not a call, carries it to the disk. With
// SetTornSync(true) the first failing Sync persists the first half of the
// file's changed pages, in offset order, and the first half of the changed
// bytes of the next — a power cut in the middle of an fsync (the torn-write
// case WAL tail repair exists for).
//
// After Crash, handles opened before the crash return errors; the store
// must be reopened through the same FaultFS to observe the surviving
// state.
type FaultFS struct {
	mu      sync.Mutex
	epoch   int
	files   map[string]*fileState // current namespace
	durable map[string]*fileState // namespace as of the last SyncDir

	ops      int64
	failAt   int64
	tornSync bool
}

type fileState struct {
	data   pages // current contents
	synced pages // contents as of the last successful Sync
}

// pageSize is the granularity a FaultFS file is held and torn at.
const pageSize = 4096

// pages is a file's contents: size bytes over ceil(size/pageSize) pages,
// zero past size. A page is never reallocated while the file holds it.
type pages struct {
	size int64
	p    [][]byte
}

// grow extends the contents to at least n bytes with zeros.
func (c *pages) grow(n int64) {
	for int64(len(c.p))*pageSize < n {
		c.p = append(c.p, make([]byte, pageSize))
	}
	c.size = max(c.size, n)
}

func (c *pages) writeAt(b []byte, off int64) {
	c.grow(off + int64(len(b)))
	for len(b) > 0 {
		n := copy(c.p[off/pageSize][off%pageSize:], b)
		b, off = b[n:], off+int64(n)
	}
}

func (c *pages) readAt(b []byte, off int64) int {
	b = b[:min(int64(len(b)), max(c.size-off, 0))]
	for n := 0; n < len(b); {
		n += copy(b[n:], c.p[(off+int64(n))/pageSize][(off+int64(n))%pageSize:])
	}
	return len(b)
}

func (c *pages) truncate(size int64) {
	if size < c.size { // keep zero past size
		keep := (size + pageSize - 1) / pageSize
		c.p, c.size = c.p[:keep], size
		if size%pageSize != 0 {
			clear(c.p[keep-1][size%pageSize:])
		}
	}
	c.grow(size)
}

// copyFrom makes c a copy of src, reusing c's pages.
func (c *pages) copyFrom(src *pages) {
	for i, b := range src.p {
		if i < len(c.p) {
			copy(c.p[i], b)
		} else {
			c.p = append(c.p, append([]byte(nil), b...))
		}
	}
	c.p, c.size = c.p[:len(src.p)], src.size
}

// NewFaultFS returns an empty fault-injecting filesystem with no faults
// armed.
func NewFaultFS() *FaultFS {
	return &FaultFS{
		files:   make(map[string]*fileState),
		durable: make(map[string]*fileState),
	}
}

// SetFailAfter arms the fault: the n-th mutating operation from the start
// of this FaultFS's life (1-based) and every mutating operation after it
// fail with ErrInjected. n <= 0 disarms.
func (fs *FaultFS) SetFailAfter(n int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.failAt = n
}

// SetTornSync makes the first failing Sync persist the first half of the
// file's changed pages and half the changed bytes of the next, simulating a
// torn fsync.
func (fs *FaultFS) SetTornSync(on bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.tornSync = on
}

// Ops returns the number of mutating operations observed so far; a
// fault-free run of a workload measures the sweep range for SetFailAfter.
func (fs *FaultFS) Ops() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// Crash simulates power loss: every file reverts to its last-synced
// contents, the namespace reverts to its last dir-synced state, open
// handles are invalidated, and faults are disarmed so the store can be
// reopened against the surviving state. A view from before the crash
// writes pages no file holds any more.
func (fs *FaultFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.epoch++
	fs.failAt = 0
	files := make(map[string]*fileState, len(fs.durable))
	for name, st := range fs.durable {
		ns := &fileState{}
		ns.data.copyFrom(&st.synced)
		ns.synced.copyFrom(&st.synced)
		files[name] = ns
		fs.durable[name] = ns
	}
	fs.files = files
}

// opGate charges one mutating operation against the fault budget. It
// returns (firstFailure, ErrInjected) once the armed index is reached.
func (fs *FaultFS) opGate() (bool, error) {
	fs.ops++
	if fs.failAt > 0 && fs.ops >= fs.failAt {
		return fs.ops == fs.failAt, ErrInjected
	}
	return false, nil
}

// --- FS interface -----------------------------------------------------------

func (fs *FaultFS) OpenFile(path string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, ok := fs.files[path]
	if !ok {
		if _, err := fs.opGate(); err != nil {
			return nil, fmt.Errorf("faultfs: create %s: %w", path, err)
		}
		st = &fileState{}
		fs.files[path] = st
	}
	return &memFile{fs: fs, name: path, st: st, epoch: fs.epoch}, nil
}

func (fs *FaultFS) Create(path string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, err := fs.opGate(); err != nil {
		return nil, fmt.Errorf("faultfs: create %s: %w", path, err)
	}
	st, ok := fs.files[path]
	if !ok {
		st = &fileState{}
		fs.files[path] = st
	} else {
		st.data = pages{}
	}
	return &memFile{fs: fs, name: path, st: st, epoch: fs.epoch}, nil
}
func (fs *FaultFS) Open(path string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, ok := fs.files[path]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	return &memFile{fs: fs, name: path, st: st, epoch: fs.epoch}, nil
}

func (fs *FaultFS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; !ok {
		return &os.PathError{Op: "remove", Path: path, Err: os.ErrNotExist}
	}
	if _, err := fs.opGate(); err != nil {
		return fmt.Errorf("faultfs: remove %s: %w", path, err)
	}
	delete(fs.files, path)
	return nil
}

func (fs *FaultFS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, ok := fs.files[oldPath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldPath, Err: os.ErrNotExist}
	}
	if _, err := fs.opGate(); err != nil {
		return fmt.Errorf("faultfs: rename %s: %w", oldPath, err)
	}
	fs.files[newPath] = st
	delete(fs.files, oldPath)
	return nil
}

func (fs *FaultFS) Stat(path string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, ok := fs.files[path]
	if !ok {
		return 0, &os.PathError{Op: "stat", Path: path, Err: os.ErrNotExist}
	}
	return st.data.size, nil
}

func (fs *FaultFS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var names []string
	for name := range fs.files {
		if dirOf(name) == dir {
			names = append(names, name[len(dir)+1:])
		}
	}
	sort.Strings(names)
	return names, nil
}

func (fs *FaultFS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, err := fs.opGate(); err != nil {
		return fmt.Errorf("faultfs: syncdir %s: %w", dir, err)
	}
	for name := range fs.durable {
		if dirOf(name) == dir {
			if _, live := fs.files[name]; !live {
				delete(fs.durable, name)
			}
		}
	}
	for name, st := range fs.files {
		if dirOf(name) == dir {
			fs.durable[name] = st
		}
	}
	return nil
}

// MkdirAll does nothing: paths are opaque keys grouped by filepath.Dir, and
// an uncharged call keeps the crash sweeps' fault indexes unaffected.
func (fs *FaultFS) MkdirAll(string) error { return nil }

// --- file handles -----------------------------------------------------------

type memFile struct {
	fs    *FaultFS
	name  string
	st    *fileState
	epoch int
}

var errStaleHandle = errors.New("vfs: stale file handle (filesystem crashed)")

func (f *memFile) check() error {
	if f.epoch != f.fs.epoch {
		return errStaleHandle
	}
	return nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	if off < 0 || off >= f.st.data.size {
		return 0, io.EOF
	}
	if n := f.st.data.readAt(p, off); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

// View returns [off, off+n) of the file's current contents, uncopied and
// writable: a write through it is a write to the file, seen at once by every
// handle, durable after Sync. The range must lie within one 4 KiB page of
// the file; the page stays the file's however the file grows. A handle from
// before a Crash fails.
func (f *memFile) View(off, n int64) ([]byte, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return nil, err
	}
	if off < 0 || n <= 0 || off+n > f.st.data.size || off/pageSize != (off+n-1)/pageSize {
		return nil, fmt.Errorf("faultfs: view [%d, %d) of %s is not within one page of its %d bytes", off, off+n, f.name, f.st.data.size)
	}
	o := off % pageSize
	return f.st.data.p[off/pageSize][o : o+n : o+n], nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	if _, err := f.fs.opGate(); err != nil {
		return 0, fmt.Errorf("faultfs: write %s: %w", f.name, err)
	}
	f.st.data.writeAt(p, off)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	first, err := f.fs.opGate()
	if err != nil {
		if first && f.fs.tornSync {
			f.tornSyncLocked()
		}
		return fmt.Errorf("faultfs: sync %s: %w", f.name, err)
	}
	f.st.synced.copyFrom(&f.st.data)
	return nil
}

// tornSyncLocked persists the first half of the pages that differ from the
// synced image, in offset order, and the first half of the changed bytes of
// the page after them: the deterministic power-cut-during-fsync image. A
// shrink is not persisted; a persisted byte past the synced end extends the
// file to it, zeros before it.
func (f *memFile) tornSyncLocked() {
	cur, syn := &f.st.data, &f.st.synced
	type span struct{ page, lo, hi int }
	var changed []span
	for i := range cur.p {
		if lo, hi := changedBytes(cur, syn, i); lo < hi {
			changed = append(changed, span{i, lo, hi})
		}
	}
	k := len(changed) / 2
	for n, c := range changed[:min(k+1, len(changed))] {
		if n == k { // the page the power cut tore: half its changed bytes
			if c.hi = c.lo + (c.hi-c.lo)/2; c.lo == c.hi {
				break
			}
		}
		syn.grow(min(int64(c.page)*pageSize+int64(c.hi), cur.size))
		copy(syn.p[c.page][c.lo:c.hi], cur.p[c.page][c.lo:c.hi])
	}
}

// changedBytes returns the range [lo, hi) of page i in which the current
// contents differ from the synced ones, counting every byte the synced image
// lacks; lo == hi when none do.
func changedBytes(cur, syn *pages, i int) (lo, hi int) {
	base := int64(i) * pageSize
	lo = pageSize
	for j := 0; j < pageSize; j++ {
		off := base + int64(j)
		differs := off < cur.size && off >= syn.size
		if !differs && i < len(syn.p) {
			differs = cur.p[i][j] != syn.p[i][j]
		}
		if differs {
			lo, hi = min(lo, j), j+1
		}
	}
	return lo, max(hi, lo)
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	if _, err := f.fs.opGate(); err != nil {
		return fmt.Errorf("faultfs: truncate %s: %w", f.name, err)
	}
	f.st.data.truncate(size)
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	return f.st.data.size, nil
}

func (f *memFile) Close() error { return nil }

func (f *memFile) Name() string { return f.name }
