package aion

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"aion/internal/model"
	"aion/internal/testkit/vfstest"
	"aion/internal/vfs"
)

// loadAndClose writes socialUpdates into a fresh store at dir and closes it
// cleanly, returning how many updates the log holds.
func loadAndClose(t *testing.T, opts Options) uint64 {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	us := socialUpdates()
	if err := db.ApplyBatch(us); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return uint64(len(us))
}

// TestReopenCatchesUpFromWhatTheDiskSays: the catch-up path is chosen by the
// state of the lineage directory alone. A clean Close leaves a checkpoint
// and the reopen re-applies nothing; a missing checkpoint, a truncated index
// file and a checkpoint ahead of the recovered log each rebuild from the
// whole log. Every reopened store must answer like the original.
func TestReopenCatchesUpFromWhatTheDiskSays(t *testing.T) {
	ctx := context.Background()
	lineage := func(dir, name string) string { return filepath.Join(dir, "lineage", name) }
	cases := []struct {
		name    string
		damage  func(t *testing.T, dir string)
		rebuild bool
	}{
		{"clean close", func(*testing.T, string) {}, false},
		{"checkpoint deleted", func(t *testing.T, dir string) {
			if err := os.Remove(lineage(dir, "checkpoint")); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"checkpoint corrupt", func(t *testing.T, dir string) {
			b, err := os.ReadFile(lineage(dir, "checkpoint"))
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0xff
			if err := os.WriteFile(lineage(dir, "checkpoint"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"checkpoint names no log prefix", func(t *testing.T, dir string) {
			// A valid frame whose total is one short of what its position
			// implies: resuming from it cannot end at the log's end.
			b, err := os.ReadFile(lineage(dir, "checkpoint"))
			if err != nil {
				t.Fatal(err)
			}
			binary.BigEndian.PutUint64(b[20:], binary.BigEndian.Uint64(b[20:])-1)
			binary.BigEndian.PutUint32(b[28:], crc32.ChecksumIEEE(b[:28]))
			if err := os.WriteFile(lineage(dir, "checkpoint"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"index file truncated", func(t *testing.T, dir string) {
			if err := os.Truncate(lineage(dir, "outrels.idx"), 8192+50); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"checkpoint ahead of the log", func(t *testing.T, dir string) {
			// The log loses its last record, as if its final fsync never
			// happened: the checkpoint now names a position the log lacks.
			log := filepath.Join(dir, "timestore", "p-1", "updates.log")
			fi, err := os.Stat(log)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(log, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			n := loadAndClose(t, Options{Dir: dir})
			tc.damage(t, dir)
			db := openDB(t, Options{Dir: dir})
			logged := db.TimeStore().Stats().Updates
			if tc.name == "checkpoint ahead of the log" {
				n--
			}
			if logged != n {
				t.Fatalf("log recovered %d updates, want %d", logged, n)
			}
			st := db.LineageStore().Stats()
			if want := map[bool]uint64{false: 0, true: logged}[tc.rebuild]; st.CaughtUp != want {
				t.Errorf("CaughtUp = %d, want %d", st.CaughtUp, want)
			}
			if st.Updates != logged {
				t.Errorf("lineage holds %d updates, the log %d", st.Updates, logged)
			}
			if got, want := db.LineageStore().AppliedThrough(), db.TimeStore().LatestTimestamp(); got != want {
				t.Errorf("AppliedThrough = %d, TimeStore at %d", got, want)
			}
			ns, err := db.GetNodeContext(ctx, 0, 21, 21)
			if err != nil || len(ns) != 1 || !ns[0].HasLabel("VIP") {
				t.Errorf("GetNode(0) at 21 = %v, %v", ns, err)
			}
			rels, err := db.GetRelationshipsContext(ctx, 4, model.Outgoing, 21, 21)
			if err != nil || len(rels) != 1 {
				t.Errorf("node 4 out-rels at 21 = %v, %v", rels, err)
			}
			if lin, ts := db.PlannerDecisions(); lin == 0 || ts != 0 {
				t.Errorf("planner sent %d reads to the LineageStore and %d to the TimeStore, want all on the LineageStore", lin, ts)
			}
		})
	}
}

// removeFailFS fails the first `times` Removes of one path.
type removeFailFS struct {
	vfs.FS
	path  string
	times *int
}

func (f removeFailFS) Remove(path string) error {
	if path == f.path && *f.times > 0 {
		*f.times--
		return vfstest.ErrInjected
	}
	return f.FS.Remove(path)
}

// TestSkippedApplyBarsTheCheckpoint: a transient fault fails the cascade's
// apply of one batch (here before it wrote anything: the lineage checkpoint
// could not be removed) while the TimeStore keeps it. The failure is sticky:
// later batches are refused, and WaitSync and Close report it. The checkpoint
// on disk names the log prefix before the batch, so the reopen resumes from it
// and finds the skipped node. (lineagestore.TestFailedApplyBarsTheCheckpoint
// covers an apply that succeeds after a failed one.)
func TestSkippedApplyBarsTheCheckpoint(t *testing.T) {
	dir := t.TempDir()
	logged := loadAndClose(t, Options{Dir: dir})
	once := 1
	fs := removeFailFS{FS: vfs.OS, path: filepath.Join(dir, "lineage", "checkpoint"), times: &once}
	db, err := Open(Options{Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	next := db.LatestTimestamp() + 1
	if err := db.ApplyBatch([]model.Update{model.AddNode(next, 1000, []string{"N"}, nil)}); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitSync(); !errors.Is(err, vfstest.ErrInjected) {
		t.Fatalf("WaitSync after a cascade apply over an irremovable checkpoint: %v, want the injected fault", err)
	}
	if err := db.ApplyBatch([]model.Update{model.AddNode(next+1, 1001, []string{"N"}, nil)}); !errors.Is(err, vfstest.ErrInjected) {
		t.Errorf("ApplyBatch after the cascade failed: %v, want the injected fault", err)
	}
	if err := db.Close(); !errors.Is(err, vfstest.ErrInjected) {
		t.Fatalf("Close: %v, want the injected fault", err)
	}
	db = openDB(t, Options{Dir: dir})
	if st := db.LineageStore().Stats(); st.CaughtUp != 1 || st.Updates != logged+1 {
		t.Errorf("reopen caught up %d of %d updates, want the one after the checkpoint of %d", st.CaughtUp, st.Updates, logged)
	}
	if vs, err := db.GetNodeContext(context.Background(), 1000, next, next); err != nil || len(vs) != 1 {
		t.Errorf("node 1000 after the reopen: %v, %v", vs, err)
	}
}

// TestFailedOpenReleasesEverything: an Open that fails inside the lineage
// catch-up — after strings.db, the TimeStore (log handles, snapshot worker)
// and the four lineage page caches are open — must close all of them.
func TestFailedOpenReleasesEverything(t *testing.T) {
	dir := t.TempDir()
	loadAndClose(t, Options{Dir: dir})
	// No checkpoint: the catch-up must wipe, and the wipe cannot remove the
	// first index file.
	if err := os.Remove(filepath.Join(dir, "lineage", "checkpoint")); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	always := 1 << 30
	fs := removeFailFS{FS: vfs.OS, path: filepath.Join(dir, "lineage", "nodes.idx"), times: &always}
	fds, goroutines := openFDs(t), runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		if _, err := Open(Options{Dir: dir, FS: fs}); !errors.Is(err, vfstest.ErrInjected) {
			t.Fatalf("round %d: Open = %v, want the injected fault", i, err)
		}
	}
	if got := openFDs(t); got > fds {
		t.Errorf("%d descriptors open after 50 failed Opens, %d before", got, fds)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("%d goroutines after 50 failed Opens, %d before", got, goroutines)
	}
}
