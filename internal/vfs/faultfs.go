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
//     Crash reverts every file to its synced image.
//   - Namespace operations (create, rename, remove) are durable only after
//     a successful SyncDir of the parent directory; a Crash reverts the
//     namespace to its last dir-synced state. A file whose name was never
//     dir-synced vanishes entirely, however much of its content was synced.
//
// Fault injection: every mutating operation (WriteAt, Sync, Truncate,
// creation, Rename, Remove, SyncDir) increments an operation counter; once
// the counter reaches the index set with SetFailAfter, that operation and
// all later mutating operations fail with ErrInjected — the disk is gone,
// which also exercises the stores' fail-stop paths. With SetTornSync(true)
// the first failing Sync persists a deterministic prefix of the file's
// unsynced writes — half the pending writes plus half the bytes of the
// next — modelling a power cut in the middle of an fsync (the torn-write
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
	data    []byte // current contents
	synced  []byte // contents as of the last successful Sync
	pending []writeOp
}

type writeOp struct {
	truncate bool
	size     int64
	off      int64
	data     []byte
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

// SetTornSync makes the first failing Sync persist half of the file's
// pending writes (plus half the bytes of the next), simulating a torn
// fsync.
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
// reopened against the surviving state.
func (fs *FaultFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.epoch++
	fs.failAt = 0
	files := make(map[string]*fileState, len(fs.durable))
	for name, st := range fs.durable {
		ns := &fileState{data: cloneBytes(st.synced), synced: cloneBytes(st.synced)}
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

func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

func applyWrite(buf []byte, off int64, p []byte) []byte {
	if need := off + int64(len(p)); need > int64(len(buf)) {
		buf = append(buf, make([]byte, need-int64(len(buf)))...)
	}
	copy(buf[off:], p)
	return buf
}

func applyPending(buf []byte, op writeOp) []byte {
	if op.truncate {
		if op.size <= int64(len(buf)) {
			return buf[:op.size]
		}
		return append(buf, make([]byte, op.size-int64(len(buf)))...)
	}
	return applyWrite(buf, op.off, op.data)
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
		st.data = nil
		st.pending = append(st.pending, writeOp{truncate: true})
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
	return int64(len(st.data)), nil
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
	if off < 0 || off >= int64(len(f.st.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.st.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
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
	f.st.data = applyWrite(f.st.data, off, p)
	f.st.pending = append(f.st.pending, writeOp{off: off, data: cloneBytes(p)})
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
	f.st.synced = cloneBytes(f.st.data)
	f.st.pending = nil
	return nil
}

// tornSyncLocked persists half the pending writes plus half the bytes of
// the next one: the deterministic power-cut-during-fsync image.
func (f *memFile) tornSyncLocked() {
	st := f.st
	base := cloneBytes(st.synced)
	k := len(st.pending) / 2
	for _, op := range st.pending[:k] {
		base = applyPending(base, op)
	}
	if k < len(st.pending) {
		if op := st.pending[k]; !op.truncate && len(op.data) > 0 {
			base = applyWrite(base, op.off, op.data[:len(op.data)/2])
		}
	}
	st.synced = base
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
	f.st.data = applyPending(f.st.data, writeOp{truncate: true, size: size})
	f.st.pending = append(f.st.pending, writeOp{truncate: true, size: size})
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	return int64(len(f.st.data)), nil
}

func (f *memFile) Close() error { return nil }

func (f *memFile) Name() string { return f.name }
