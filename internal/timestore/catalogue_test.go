package timestore

import (
	"os"
	"path/filepath"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
)

// catalogueFloor is the file name of the active snapshot a disk-floor
// lookup at ts lands on ("" when none).
func catalogueFloor(s *Store, ts model.Timestamp) string {
	e, ok := s.floorSnapshot(ts)
	if !ok {
		return ""
	}
	return filepath.Base(e.path)
}

// TestSnapshotCatalogueFloor pins the floor lookups of the in-memory
// snapshot catalogue to what the snap.idx B+Tree it replaced answered
// (the expectations were checked against that implementation): one entry
// per timestamp, a later snapshot at the same timestamp superseding the
// earlier, eager mid-timestamp snapshots included, everything retired by a
// seal, and the same answers after a reopen re-derives the catalogue from
// the file names. It also pins which loaded snapshot files enter the
// GraphStore — only those complete at their timestamp, as the time.idx
// probe the fence walk replaced decided — and that neither index file
// survives an Open.
func TestSnapshotCatalogueFloor(t *testing.T) {
	node := func(ts model.Timestamp, id int) model.Update {
		return model.AddNode(ts, model.NodeID(id), []string{"N"}, nil)
	}
	const (
		snap5a = "snap-0000000000000005-00000001.snap"
		snap5b = "snap-0000000000000005-00000002.snap"
		snap8  = "snap-0000000000000008-00000000.snap"
		snap12 = "snap-000000000000000c-00000000.snap"
		snap13 = "snap-000000000000000d-00000000.snap"
	)
	type floors map[model.Timestamp]string
	stages := []struct {
		name   string
		do     func(t *testing.T, s *Store) // nil: close and reopen
		want   floors
		onDisk []string // snapshot files expected in the directory afterwards
		// cached: after GetGraph(ts) loaded the floor file, is ts in the cache?
		cached map[model.Timestamp]bool
	}{
		{
			name: "eager mid-timestamp snapshot",
			do: func(t *testing.T, s *Store) {
				appendAll(t, s, node(3, 0), node(5, 1), node(5, 2))
				snapshotNow(t, s)
			},
			want:   floors{0: "", 4: "", 5: snap5a, 6: snap5a, 100: snap5a},
			onDisk: []string{snap5a},
		},
		{
			name: "same-timestamp supersede",
			do: func(t *testing.T, s *Store) {
				appendAll(t, s, node(5, 3))
				snapshotNow(t, s)
			},
			want:   floors{4: "", 5: snap5b, 7: snap5b},
			onDisk: []string{snap5a, snap5b}, // the superseded file waits for recovery
		},
		{
			name: "later timestamp",
			do: func(t *testing.T, s *Store) {
				appendAll(t, s, node(8, 4))
				snapshotNow(t, s)
			},
			want:   floors{4: "", 5: snap5b, 7: snap5b, 8: snap8, 100: snap8},
			onDisk: []string{snap5a, snap5b, snap8},
		},
		{
			name:   "reopen re-derives from file names",
			want:   floors{4: "", 5: snap5b, 7: snap5b, 8: snap8, 100: snap8},
			onDisk: []string{snap5b, snap8},
		},
		{
			name: "seal retires every active snapshot",
			do: func(t *testing.T, s *Store) {
				appendAll(t, s, node(9, 5), node(10, 6), node(11, 7)) // 8 updates; ts 11 crosses the boundary
				if got := len(s.SealedBounds()); got != 1 {
					t.Fatalf("%d sealed partitions, want 1", got)
				}
			},
			want: floors{5: "", 8: "", 100: ""},
		},
		{
			name: "post-seal snapshot",
			do: func(t *testing.T, s *Store) {
				appendAll(t, s, node(12, 8))
				snapshotNow(t, s)
			},
			want:   floors{10: "", 11: "", 12: snap12, 100: snap12},
			onDisk: []string{snap12},
		},
		{
			name:   "reopen after seal",
			want:   floors{10: "", 11: "", 12: snap12, 100: snap12},
			onDisk: []string{snap12},
		},
		{
			name:   "update at the snapshot's timestamp: loaded, not cached",
			do:     func(t *testing.T, s *Store) { appendAll(t, s, node(12, 9)) },
			want:   floors{12: snap12},
			onDisk: []string{snap12},
			cached: map[model.Timestamp]bool{12: false},
		},
		{
			name:   "still not cached after reopen",
			want:   floors{12: snap12},
			onDisk: []string{snap12},
			cached: map[model.Timestamp]bool{12: false},
		},
		{
			name: "only later timestamps follow: cached",
			do: func(t *testing.T, s *Store) {
				appendAll(t, s, node(13, 10))
				snapshotNow(t, s)
				appendAll(t, s, node(14, 11))
			},
			want:   floors{12: snap12, 13: snap13, 100: snap13},
			onDisk: []string{snap12, snap13},
			cached: map[model.Timestamp]bool{12: false, 13: true},
		},
		{
			name:   "cached again after reopen",
			want:   floors{12: snap12, 13: snap13, 100: snap13},
			onDisk: []string{snap12, snap13},
			cached: map[model.Timestamp]bool{12: false, 13: true},
		},
	}

	dir := t.TempDir()
	// A store written before the fence list left a time index behind.
	if err := os.WriteFile(filepath.Join(dir, "time.idx"), make([]byte, 8192), 0o644); err != nil {
		t.Fatal(err)
	}
	codec := enc.NewCodec(strstore.NewMem())
	open := func() *Store {
		s, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 1 << 30, PartitionEvery: 7})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	defer func() { s.Close() }()
	for _, st := range stages {
		if st.do != nil {
			st.do(t, s)
		} else {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = open()
		}
		for ts, want := range st.want {
			if got := catalogueFloor(s, ts); got != want {
				t.Errorf("%s: floor(%d) = %q, want %q", st.name, ts, got, want)
			}
		}
		var disk []string
		for _, f := range snapshotFiles(t, dir) {
			disk = append(disk, filepath.Base(f))
		}
		if len(disk) != len(st.onDisk) {
			t.Errorf("%s: snapshot files %v, want %v", st.name, disk, st.onDisk)
			continue
		}
		for i := range disk {
			if disk[i] != st.onDisk[i] {
				t.Errorf("%s: snapshot files %v, want %v", st.name, disk, st.onDisk)
				break
			}
		}
		for ts, want := range st.cached {
			g, err := s.GetGraph(ts)
			if err != nil {
				t.Fatal(err)
			}
			if g.NodeCount() != int(ts)-2 { // one node per update: ids 0..ts-3
				t.Errorf("%s: GetGraph(%d) has %d nodes, want %d", st.name, ts, g.NodeCount(), ts-2)
			}
			if _, got := s.gs.Get(ts); got != want {
				t.Errorf("%s: snapshot at %d cached = %v, want %v", st.name, ts, got, want)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, idx := range []string{"snap.idx", "time.idx"} {
			if _, err := os.Stat(filepath.Join(dir, idx)); !os.IsNotExist(err) {
				t.Errorf("%s: %s must not exist (stat: %v)", st.name, idx, err)
			}
		}
	}
}

func appendAll(t *testing.T, s *Store, us ...model.Update) {
	t.Helper()
	for _, u := range us {
		if err := s.Append(u); err != nil {
			t.Fatal(err)
		}
	}
}

func snapshotNow(t *testing.T, s *Store) {
	t.Helper()
	if err := s.CreateSnapshot(); err != nil {
		t.Fatal(err)
	}
}
