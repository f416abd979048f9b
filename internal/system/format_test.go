package system

import (
	"strings"
	"testing"

	"aion/internal/aion"
	"aion/internal/enc"
	"aion/internal/strstore"
	"aion/internal/testkit/vfstest"
	"aion/internal/vfs"
	"aion/internal/wal"
)

// asFixedRefLog rewrites the TimeStore log of the closed system in fs to the
// format before compact refs: the ATL2 marker, then the same blocks with every
// string ref 4 bytes wide.
func asFixedRefLog(t *testing.T, fs *vfstest.FaultFS) {
	t.Helper()
	strs, err := strstore.OpenFS(fs, "sys/aion/strings.db")
	if err != nil {
		t.Fatal(err)
	}
	defer strs.Close()
	compact, fixed := enc.NewCodec(strs), enc.NewFixedRefCodec(strs)
	const path = "sys/aion/timestore/p-1/updates.log"
	frames := readFrames(t, fs, path)
	log := wal.AppendRecord(nil, []byte("ATL2"))
	for _, f := range frames[1:] {
		us, err := compact.DecodeBlock(nil, f)
		if err == nil {
			f, err = fixed.AppendBlock(nil, us)
		}
		if err != nil {
			t.Fatal(err)
		}
		log = wal.AppendRecord(log, f)
	}
	if err := vfs.PublishFile(fs, path, log); err != nil {
		t.Fatal(err)
	}
}

// TestParentFormatAionIsRebuilt: Aion's stores of the format before compact
// refs need no migration. Open refuses the old TimeStore log, naming the
// directory to delete; with the aion directory deleted, the next Open rebuilds
// Aion from the host's log, which kept its format, and every read then answers
// as the reference model does.
func TestParentFormatAionIsRebuilt(t *testing.T) {
	r := &residentSys{t: t, fs: vfstest.NewFaultFS()}
	r.open()
	h := newHistorian(3)
	for i := 0; i < 150; i++ {
		r.run(h)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	asFixedRefLog(t, r.fs)

	_, err := Open(Options{Dir: "sys", SyncCommits: true, FS: r.fs, Aion: aion.Options{SnapshotEveryOps: residentSnapshotEvery}})
	if err == nil || !strings.Contains(err.Error(), "ATL2") || !strings.Contains(err.Error(), "no migration") || !strings.Contains(err.Error(), "sys/aion/timestore") {
		t.Fatalf("Open over an ATL2 log: %v", err)
	}
	for _, dir := range []string{"sys/aion", "sys/aion/timestore", "sys/aion/timestore/p-1", "sys/aion/lineage"} {
		names, err := r.fs.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := r.fs.Remove(dir + "/" + name); err != nil {
				t.Fatal(err)
			}
		}
	}

	r.open()
	defer r.Close()
	if got, host := r.Aion.LatestTimestamp(), r.Host.Clock(); got != host || int(host) != len(r.commits) {
		t.Fatalf("the rebuilt Aion ends at %d, the host at %d; %d commits were taken", got, host, len(r.commits))
	}
	for i := 0; i < 100; i++ { // policy snapshots of this process life
		r.run(h)
	}
	r.matchModel("rebuilt from the host log", enc.NewCodec(strstore.NewMem()))
}
