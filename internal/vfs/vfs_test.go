package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestOSRoundTrip exercises the passthrough: write, sync, reopen, read,
// rename, dir listing.
func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.dat")
	f, err := OS.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if n, err := OS.Stat(path); err != nil || n != 5 {
		t.Fatalf("stat: %d %v", n, err)
	}
	if err := OS.Rename(path, filepath.Join(dir, "b.dat")); err != nil {
		t.Fatal(err)
	}
	names, err := OS.ReadDir(dir)
	if err != nil || len(names) != 1 || names[0] != "b.dat" {
		t.Fatalf("readdir: %v %v", names, err)
	}
	g, err := OS.Open(filepath.Join(dir, "b.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	buf := make([]byte, 5)
	if _, err := g.ReadAt(buf, 0); err != nil || string(buf) != "hello" {
		t.Fatalf("read: %q %v", buf, err)
	}
	if _, err := OS.Stat(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Fatalf("missing stat err = %v", err)
	}
}

// TestFaultFSCrashDiscardsUnsynced: synced bytes survive a crash, unsynced
// bytes do not.
func TestFaultFSCrashDiscardsUnsynced(t *testing.T) {
	fs := NewFaultFS()
	f, _ := fs.OpenFile("d/x")
	f.WriteAt([]byte("durable"), 0)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("-lost"), 7)
	fs.Crash()
	if _, err := f.WriteAt([]byte("x"), 0); err == nil {
		t.Error("stale handle must fail after crash")
	}
	g, err := fs.Open("d/x")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := g.Size(); n != 7 {
		t.Fatalf("size after crash = %d, want 7 (unsynced tail discarded)", n)
	}
}

// TestFaultFSNamespaceDurability: a file created but never dir-synced
// vanishes on crash; a rename is durable only after SyncDir.
func TestFaultFSNamespaceDurability(t *testing.T) {
	fs := NewFaultFS()
	f, _ := fs.OpenFile("d/tmp")
	f.WriteAt([]byte("abc"), 0)
	f.Sync()
	fs.Crash()
	if _, err := fs.Open("d/tmp"); !os.IsNotExist(err) {
		t.Fatalf("never-dir-synced file must vanish, got %v", err)
	}

	// tmp+rename+syncdir is atomic: crash after the syncdir keeps the
	// final name with the synced content.
	f, _ = fs.OpenFile("d/snap.tmp")
	f.WriteAt([]byte("snapshot"), 0)
	f.Sync()
	if err := fs.Rename("d/snap.tmp", "d/snap"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if _, err := fs.Open("d/snap.tmp"); !os.IsNotExist(err) {
		t.Fatal("old name must be gone after dir-synced rename")
	}
	g, err := fs.Open("d/snap")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := g.ReadAt(buf, 0); err != nil || string(buf) != "snapshot" {
		t.Fatalf("renamed content: %q %v", buf, err)
	}
}

// TestFaultFSFailAfter: the armed op and all later mutating ops fail;
// reads keep working.
func TestFaultFSFailAfter(t *testing.T) {
	fs := NewFaultFS()
	f, _ := fs.OpenFile("d/x") // op 1 (creation)
	fs.SetFailAfter(3)
	if _, err := f.WriteAt([]byte("a"), 0); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("b"), 1); !errors.Is(err, ErrInjected) { // op 3
		t.Fatalf("op 3 must fail injected, got %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) { // op 4: sticky
		t.Fatalf("later ops must stay failed, got %v", err)
	}
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatalf("reads must survive the fault: %v", err)
	}
}

// TestFaultFSTornSync: a failing sync with torn mode persists a strict
// prefix of the pending writes.
func TestFaultFSTornSync(t *testing.T) {
	fs := NewFaultFS()
	fs.SetTornSync(true)
	f, _ := fs.OpenFile("d/x") // op 1
	fs.SyncDir("d")            // op 2: name durable
	// Four pending writes of 4 bytes each.
	for i := 0; i < 4; i++ { // ops 3-6
		if _, err := f.WriteAt([]byte{byte(i), byte(i), byte(i), byte(i)}, int64(4*i)); err != nil {
			t.Fatal(err)
		}
	}
	fs.SetFailAfter(7)
	if err := f.Sync(); !errors.Is(err, ErrInjected) { // op 7: torn
		t.Fatalf("sync must fail, got %v", err)
	}
	fs.Crash()
	g, err := fs.Open("d/x")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := g.Size()
	// Half the writes (2 of 4) fully applied plus half of the next: 10 bytes.
	if n != 10 {
		t.Fatalf("torn sync persisted %d bytes, want 10", n)
	}
}

// TestFaultFSDoubleClose: FaultFS handles tolerate double Close (always
// nil, even across a crash); the os passthrough surfaces the second Close
// as an error, the way *os.File does.
func TestFaultFSDoubleClose(t *testing.T) {
	fs := NewFaultFS()
	f, err := fs.OpenFile("d/x")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second close must stay nil on FaultFS, got %v", err)
	}
	fs.Crash()
	if err := f.Close(); err != nil {
		t.Fatalf("close of a stale handle is a no-op, got %v", err)
	}

	g, err := OS.OpenFile(filepath.Join(t.TempDir(), "a.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := g.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("second os close = %v, want ErrClosed", err)
	}
}

// TestFaultFSSyncAfterCrash: a pre-crash handle fails every I/O method
// with the stale-handle error, and a stale Sync charges no op against the
// fault budget — it dies on the epoch check before reaching the gate.
func TestFaultFSSyncAfterCrash(t *testing.T) {
	fs := NewFaultFS()
	f, _ := fs.OpenFile("d/x")
	f.WriteAt([]byte("abc"), 0)
	f.Sync()
	fs.SyncDir("d")
	fs.Crash()
	before := fs.Ops()
	if err := f.Sync(); err == nil || errors.Is(err, ErrInjected) {
		t.Fatalf("stale sync = %v, want stale-handle error", err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); err == nil {
		t.Error("stale read must fail")
	}
	if _, err := f.Size(); err == nil {
		t.Error("stale size must fail")
	}
	if err := f.Truncate(0); err == nil {
		t.Error("stale truncate must fail")
	}
	if got := fs.Ops(); got != before {
		t.Fatalf("stale calls charged %d op(s); the fault budget must only count live I/O", got-before)
	}
	// A fresh handle to the surviving state works.
	g, err := fs.Open("d/x")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatalf("fresh handle sync: %v", err)
	}
}

// TestFaultFSRenameOverExisting: rename replaces the destination in the
// current namespace immediately, but the replacement is durable only
// after SyncDir — a crash before it restores the old destination.
func TestFaultFSRenameOverExisting(t *testing.T) {
	fs := NewFaultFS()
	write := func(path, content string) {
		f, err := fs.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte(content), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	read := func(path string) string {
		g, err := fs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := g.Size()
		buf := make([]byte, n)
		if n > 0 {
			if _, err := g.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		return string(buf)
	}
	write("d/dst", "old")
	write("d/src", "new!")
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}

	// Replacement is visible immediately and the source name is gone.
	if err := fs.Rename("d/src", "d/dst"); err != nil {
		t.Fatal(err)
	}
	if got := read("d/dst"); got != "new!" {
		t.Fatalf("dst after rename = %q, want %q", got, "new!")
	}
	if _, err := fs.Open("d/src"); !os.IsNotExist(err) {
		t.Fatalf("src must be gone after rename, got %v", err)
	}

	// Not yet dir-synced: a crash restores the replaced destination.
	fs.Crash()
	if got := read("d/dst"); got != "old" {
		t.Fatalf("dst after crash without SyncDir = %q, want %q", got, "old")
	}
	if got := read("d/src"); got != "new!" {
		t.Fatalf("src after crash without SyncDir = %q, want %q", got, "new!")
	}

	// Dir-synced: the replacement survives the crash and src stays gone.
	if err := fs.Rename("d/src", "d/dst"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if got := read("d/dst"); got != "new!" {
		t.Fatalf("dst after dir-synced rename + crash = %q, want %q", got, "new!")
	}
	if _, err := fs.Open("d/src"); !os.IsNotExist(err) {
		t.Fatalf("src must stay gone after dir-synced rename, got %v", err)
	}
}

// TestMkdirAll: real directories appear under the os FS; on in-memory
// filesystems (implicit directories) it is a free no-op that must not
// charge the fault budget.
func TestMkdirAll(t *testing.T) {
	base := t.TempDir()
	nested := filepath.Join(base, "a", "b", "c")
	if err := MkdirAll(OS, nested); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(nested)
	if err != nil || !st.IsDir() {
		t.Fatalf("nested dir: %v %v", st, err)
	}
	if err := MkdirAll(OS, nested); err != nil {
		t.Fatalf("MkdirAll must be idempotent: %v", err)
	}
	// A filesystem that wraps the OS one (a test's fault shim) inherits
	// directory creation; it used to be silently skipped.
	wrapped := filepath.Join(base, "w", "x")
	if err := MkdirAll(struct{ FS }{OS}, wrapped); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(wrapped); err != nil || !st.IsDir() {
		t.Fatalf("dir under a wrapped OS filesystem: %v %v", st, err)
	}

	ffs := NewFaultFS()
	ffs.SetFailAfter(1) // any charged op would fail
	if err := MkdirAll(ffs, "x/y/z"); err != nil {
		t.Fatalf("in-memory MkdirAll: %v", err)
	}
	if n := ffs.Ops(); n != 0 {
		t.Fatalf("in-memory MkdirAll charged %d op(s); crash sweeps must be unaffected", n)
	}
}

// TestMkdirTemp: fresh, writable, distinct directories.
func TestMkdirTemp(t *testing.T) {
	base := t.TempDir()
	d1, err := MkdirTemp(base, "aion-test-*")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := MkdirTemp(base, "aion-test-*")
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatalf("MkdirTemp returned the same dir twice: %s", d1)
	}
	if err := os.WriteFile(filepath.Join(d1, "probe"), []byte("x"), 0o644); err != nil {
		t.Fatalf("temp dir not writable: %v", err)
	}
}

// TestCloseChecked: a clean close leaves *err alone; a failing close
// lands in *err; a failing close joined onto an earlier error preserves
// both.
func TestCloseChecked(t *testing.T) {
	var err error
	f, _ := NewFaultFS().OpenFile("d/x")
	CloseChecked(f, &err)
	if err != nil {
		t.Fatalf("clean close set err: %v", err)
	}

	g, oerr := OS.OpenFile(filepath.Join(t.TempDir(), "a.dat"))
	if oerr != nil {
		t.Fatal(oerr)
	}
	if cerr := g.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	CloseChecked(g, &err) // double close fails on the os passthrough
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("failing close not captured: %v", err)
	}

	sentinel := errors.New("primary failure")
	err = sentinel
	CloseChecked(g, &err)
	if !errors.Is(err, sentinel) || !errors.Is(err, os.ErrClosed) {
		t.Fatalf("joined error lost a member: %v", err)
	}
}

// TestFaultFSOpsDeterministic: the same workload produces the same op
// count, the property the sweep harness relies on.
func TestFaultFSOpsDeterministic(t *testing.T) {
	run := func() int64 {
		fs := NewFaultFS()
		f, _ := fs.OpenFile("d/x")
		for i := 0; i < 10; i++ {
			f.WriteAt([]byte("abc"), int64(3*i))
		}
		f.Sync()
		fs.Rename("d/x", "d/y")
		fs.SyncDir("d")
		return fs.Ops()
	}
	if a, b := run(), run(); a != b || a == 0 {
		t.Fatalf("op counts differ: %d vs %d", a, b)
	}
}
