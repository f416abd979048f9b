package timestore

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
)

// TestChainFloor pins the one base lookup, floorElem, with one table: the
// newest element at or before a timestamp — an eager mid-timestamp snapshot
// included, a later snapshot at the same timestamp winning — and the same
// answers after a reopen re-derives the chain from the element headers. It
// also pins which loaded elements enter the GraphStore — only those complete
// at their timestamp. The last stages add a policy snapshot, which the chain
// rule makes a delta on the eager full before it: floors name elements of
// either kind.
func TestChainFloor(t *testing.T) {
	const ( // p-1/<kind>-<ts>-<seq>
		f5s1 = "p-1/full-0000000000000005-00000001.dsnap"
		f5s2 = "p-1/full-0000000000000005-00000002.dsnap"
		f8   = "p-1/full-0000000000000008-00000000.dsnap"
		f12  = "p-1/full-000000000000000c-00000000.dsnap"
		f13  = "p-1/full-000000000000000d-00000000.dsnap"
		d14  = "p-1/delta-000000000000000e-00000000.dsnap"
	)
	var appended []model.Update
	add := func(t *testing.T, s *Store, ts model.Timestamp) {
		u := model.AddNode(ts, model.NodeID(len(appended)), []string{"N"}, nil)
		if err := s.Append(u); err != nil {
			t.Fatal(err)
		}
		appended = append(appended, u)
	}
	type floors map[model.Timestamp]string
	stages := []struct {
		name   string
		do     func(t *testing.T, s *Store) // nil: close and reopen
		want   floors
		onDisk []string
		// cached: after GetGraph(ts) loaded the floor element, is ts in the cache?
		cached map[model.Timestamp]bool
	}{
		{
			name: "eager mid-timestamp snapshot",
			do: func(t *testing.T, s *Store) {
				add(t, s, 3)
				add(t, s, 5)
				add(t, s, 5)
				snapshotNow(t, s)
			},
			want:   floors{0: "", 4: "", 5: f5s1, 6: f5s1, 100: f5s1},
			onDisk: []string{f5s1},
		},
		{
			name: "a later snapshot at the same timestamp wins",
			do: func(t *testing.T, s *Store) {
				add(t, s, 5)
				snapshotNow(t, s)
			},
			want:   floors{4: "", 5: f5s2, 7: f5s2},
			onDisk: []string{f5s1, f5s2},
		},
		{
			name: "later timestamp",
			do: func(t *testing.T, s *Store) {
				add(t, s, 8)
				snapshotNow(t, s)
			},
			want:   floors{4: "", 5: f5s2, 7: f5s2, 8: f8, 100: f8},
			onDisk: []string{f5s1, f5s2, f8},
		},
		{
			name:   "reopen re-derives from the headers",
			want:   floors{4: "", 5: f5s2, 7: f5s2, 8: f8, 100: f8},
			onDisk: []string{f5s1, f5s2, f8},
			cached: map[model.Timestamp]bool{5: true},
		},
		{
			name: "a snapshot past updates it does not follow",
			do: func(t *testing.T, s *Store) {
				add(t, s, 9)
				add(t, s, 10)
				add(t, s, 11)
				add(t, s, 12)
				snapshotNow(t, s)
			},
			want:   floors{8: f8, 11: f8, 12: f12, 100: f12},
			onDisk: []string{f5s1, f5s2, f8, f12},
		},
		{
			name:   "reopen after it",
			want:   floors{5: f5s2, 11: f8, 12: f12, 100: f12},
			onDisk: []string{f5s1, f5s2, f8, f12},
		},
		{
			name:   "update at the snapshot's timestamp: loaded, not cached",
			do:     func(t *testing.T, s *Store) { add(t, s, 12) },
			want:   floors{12: f12},
			cached: map[model.Timestamp]bool{12: false},
		},
		{
			name:   "still not cached after reopen",
			want:   floors{12: f12},
			cached: map[model.Timestamp]bool{12: false},
		},
		{
			name: "only later timestamps follow: cached",
			do: func(t *testing.T, s *Store) {
				add(t, s, 13)
				snapshotNow(t, s)
				add(t, s, 14)
			},
			want:   floors{12: f12, 13: f13, 100: f13},
			onDisk: []string{f5s1, f5s2, f8, f12, f13},
			cached: map[model.Timestamp]bool{12: false, 13: true},
		},
		{
			name:   "cached again after reopen",
			want:   floors{12: f12, 13: f13, 100: f13},
			cached: map[model.Timestamp]bool{12: false, 13: true},
		},
		{
			name:   "policy snapshot: the chain takes a delta on the eager full",
			do:     policySnapshotNow,
			want:   floors{12: f12, 13: f13, 14: d14, 100: d14},
			onDisk: []string{d14, f5s1, f5s2, f8, f12, f13},
			cached: map[model.Timestamp]bool{13: true, 14: true},
		},
		{
			name:   "the delta answers after reopen",
			want:   floors{13: f13, 14: d14, 100: d14},
			onDisk: []string{d14, f5s1, f5s2, f8, f12, f13},
			cached: map[model.Timestamp]bool{14: true},
		},
	}

	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	open := func() *Store {
		s, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rel := func(path string) string { return filepath.Join(filepath.Base(filepath.Dir(path)), filepath.Base(path)) }
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
			got := ""
			if chain, j := s.floorElem(ts); j >= 0 {
				got = rel(chain[j].path)
			}
			if got != want {
				t.Errorf("%s: floor(%d) = %q, want %q", st.name, ts, got, want)
			}
		}
		if st.onDisk != nil {
			var disk []string
			for _, f := range snapshotFiles(t, dir) {
				disk = append(disk, rel(f))
			}
			if !slices.Equal(disk, st.onDisk) {
				t.Errorf("%s: element files %v, want %v", st.name, disk, st.onDisk)
			}
		}
		for ts, want := range st.cached {
			g, err := s.GetGraphContext(context.Background(), ts)
			if err != nil {
				t.Fatal(err)
			}
			nodes := 0 // one node per update
			for _, u := range appended {
				if u.TS <= ts {
					nodes++
				}
			}
			if g.NodeCount() != nodes {
				t.Errorf("%s: GetGraph(%d) has %d nodes, want %d", st.name, ts, g.NodeCount(), nodes)
			}
			if _, at, ok := s.gs.Floor(ts); (ok && at == ts) != want {
				t.Errorf("%s: element at %d cached = %v, want %v", st.name, ts, !want, want)
			}
		}
	}
}

func snapshotNow(t *testing.T, s *Store) {
	t.Helper()
	if err := s.CreateSnapshot(); err != nil {
		t.Fatal(err)
	}
}
