package timestore

import (
	"path/filepath"
	"slices"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
)

// TestChainFloor pins the one base lookup, floorElem, against both kinds of
// segment with one table: the newest element at or before a timestamp,
// whichever segment holds it — an eager mid-timestamp snapshot included, a
// later snapshot at the same timestamp winning, the active segment's
// snapshots retired by its seal in favour of the compacted chain (whose cuts
// answer the same timestamps from the same positions), and the same answers
// after a reopen re-derives every chain from the element headers. It also
// pins which loaded elements enter the GraphStore — only those complete at
// their timestamp. The last stages add a policy snapshot, which the chain
// rule makes a delta on the eager full before it: floors name elements of
// either kind.
func TestChainFloor(t *testing.T) {
	const ( // <segment>/<kind>-<ts>-<seq>
		a5s1  = "p-1/full-0000000000000005-00000001.dsnap"
		a5s2  = "p-1/full-0000000000000005-00000002.dsnap"
		a8    = "p-1/full-0000000000000008-00000000.dsnap"
		entry = "p-1/full-ffffffffffffffff-00000000.dsnap"
		d3    = "p-1/delta-0000000000000003-00000000.dsnap"
		d5s2  = "p-1/delta-0000000000000005-00000002.dsnap"
		d8    = "p-1/delta-0000000000000008-00000000.dsnap"
		d9    = "p-1/delta-0000000000000009-00000000.dsnap"
		f10   = "p-1/full-000000000000000a-00000000.dsnap"
		b12   = "p-2/full-000000000000000c-00000000.dsnap"
		b13   = "p-2/full-000000000000000d-00000000.dsnap"
		c14   = "p-2/delta-000000000000000e-00000000.dsnap"
	)
	sealedChain := []string{d3, d5s2, d8, d9, f10, entry} // in file-name order
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
			want:   floors{0: "", 4: "", 5: a5s1, 6: a5s1, 100: a5s1},
			onDisk: []string{a5s1},
		},
		{
			name: "a later snapshot at the same timestamp wins",
			do: func(t *testing.T, s *Store) {
				add(t, s, 5)
				snapshotNow(t, s)
			},
			want:   floors{4: "", 5: a5s2, 7: a5s2},
			onDisk: []string{a5s1, a5s2},
		},
		{
			name: "later timestamp",
			do: func(t *testing.T, s *Store) {
				add(t, s, 8)
				snapshotNow(t, s)
			},
			want:   floors{4: "", 5: a5s2, 7: a5s2, 8: a8, 100: a8},
			onDisk: []string{a5s1, a5s2, a8},
		},
		{
			name:   "reopen re-derives from the headers",
			want:   floors{4: "", 5: a5s2, 7: a5s2, 8: a8, 100: a8},
			onDisk: []string{a5s1, a5s2, a8},
		},
		{
			name: "seal: the compacted chain answers for the retired snapshots",
			do: func(t *testing.T, s *Store) {
				add(t, s, 9)
				add(t, s, 10)
				add(t, s, 11) // the 8th update; ts 11 crosses the boundary
				if got := len(s.SealedBounds()); got != 1 {
					t.Fatalf("%d sealed segments, want 1", got)
				}
			},
			want:   floors{2: entry, 4: d3, 5: d5s2, 7: d5s2, 8: d8, 10: f10, 100: f10},
			onDisk: sealedChain,
			cached: map[model.Timestamp]bool{5: true},
		},
		{
			name: "snapshot in the successor",
			do: func(t *testing.T, s *Store) {
				add(t, s, 12)
				snapshotNow(t, s)
			},
			want:   floors{10: f10, 11: f10, 12: b12, 100: b12},
			onDisk: slices.Concat(sealedChain, []string{b12}),
		},
		{
			name:   "reopen after seal",
			want:   floors{5: d5s2, 11: f10, 12: b12, 100: b12},
			onDisk: slices.Concat(sealedChain, []string{b12}),
		},
		{
			name:   "update at the snapshot's timestamp: loaded, not cached",
			do:     func(t *testing.T, s *Store) { add(t, s, 12) },
			want:   floors{12: b12},
			cached: map[model.Timestamp]bool{12: false},
		},
		{
			name:   "still not cached after reopen",
			want:   floors{12: b12},
			cached: map[model.Timestamp]bool{12: false},
		},
		{
			name: "only later timestamps follow: cached",
			do: func(t *testing.T, s *Store) {
				add(t, s, 13)
				snapshotNow(t, s)
				add(t, s, 14)
			},
			want:   floors{12: b12, 13: b13, 100: b13},
			onDisk: slices.Concat(sealedChain, []string{b12, b13}),
			cached: map[model.Timestamp]bool{12: false, 13: true},
		},
		{
			name:   "cached again after reopen",
			want:   floors{12: b12, 13: b13, 100: b13},
			cached: map[model.Timestamp]bool{12: false, 13: true},
		},
		{
			name:   "policy snapshot: the active chain takes a delta on the eager full",
			do:     policySnapshotNow,
			want:   floors{12: b12, 13: b13, 14: c14, 100: c14},
			onDisk: slices.Concat(sealedChain, []string{c14, b12, b13}),
			cached: map[model.Timestamp]bool{13: true, 14: true},
		},
		{
			name:   "the delta answers after reopen",
			want:   floors{13: b13, 14: c14, 100: c14},
			onDisk: slices.Concat(sealedChain, []string{c14, b12, b13}),
			cached: map[model.Timestamp]bool{14: true},
		},
	}

	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	open := func() *Store {
		s, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 1 << 30, PartitionEvery: 7})
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
			s.sealMu.RLock()
			if _, chain, j := s.floorElem(ts); j >= 0 {
				got = rel(chain[j].path)
			}
			s.sealMu.RUnlock()
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
			g, err := s.GetGraph(ts)
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
			if _, got := s.gs.Get(ts); got != want {
				t.Errorf("%s: element at %d cached = %v, want %v", st.name, ts, got, want)
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
