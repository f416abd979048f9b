package timestore

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/strstore"
)

// fenceHistory builds a seeded, valid update stream whose timestamps come
// in runs of 1..9 updates — several fence strides long at the strides the
// property test sets — and whose state is order-sensitive (property
// overwrites), so a scan that starts one record early or late shows.
func fenceHistory(seed int64, n int) []model.Update {
	rng := rand.New(rand.NewSource(seed))
	var us []model.Update
	ts := model.Timestamp(0)
	nodes := 0
	for len(us) < n {
		ts++
		for run := 1 + rng.Intn(9); run > 0 && len(us) < n; run-- {
			if nodes < 2 || rng.Intn(3) == 0 {
				us = append(us, model.AddNode(ts, model.NodeID(nodes), []string{"N"},
					model.Properties{"v": model.IntValue(int64(len(us)))}))
				nodes++
			} else {
				us = append(us, model.UpdateNode(ts, model.NodeID(rng.Intn(nodes)), nil, nil,
					model.Properties{"v": model.IntValue(int64(len(us)))}, nil))
			}
		}
	}
	return us
}

// streamPositions numbers a stream the way the store does: seq restarts at
// every new timestamp.
func streamPositions(us []model.Update) []position {
	out := make([]position, len(us))
	cur := position{ts: -1}
	for i, u := range us {
		cur = cur.next(u.TS)
		out[i] = cur
	}
	return out
}

// fenceOracle answers queries by brute force over the appended slice.
type fenceOracle struct {
	t     *testing.T
	us    []model.Update
	pos   []position
	codec *enc.Codec
}

func (o *fenceOracle) digest(us []model.Update) string {
	var b []byte
	for _, u := range us {
		var err error
		if b, err = o.codec.AppendUpdate(append(b, '|'), u); err != nil {
			o.t.Fatal(err)
		}
	}
	return string(b)
}

// after returns the updates strictly past from with timestamp < end.
func (o *fenceOracle) after(from position, end model.Timestamp) []model.Update {
	var out []model.Update
	for i, u := range o.us {
		if from.before(o.pos[i]) && u.TS < end {
			out = append(out, u)
		}
	}
	return out
}

func (o *fenceOracle) graphAt(ts model.Timestamp) *memgraph.Graph {
	g := memgraph.New()
	if err := g.ApplyAll(o.after(position{ts: -1}, ts+1)); err != nil {
		o.t.Fatal(err)
	}
	g.SetTimestamp(ts)
	return g
}

// check compares every read path of s against the oracle at every commit
// position.
func (o *fenceOracle) check(s *Store, label string) {
	t := o.t
	ctx := context.Background()
	maxTS := o.us[len(o.us)-1].TS
	scan := func(from position, end model.Timestamp) string {
		var got []model.Update
		s.sealMu.RLock()
		err := s.scanFromLocked(ctx, from, end, func(u model.Update) bool {
			got = append(got, u)
			return true
		})
		s.sealMu.RUnlock()
		if err != nil {
			t.Fatalf("%s: scan from %+v: %v", label, from, err)
		}
		return o.digest(got)
	}
	for i, p := range o.pos {
		if want := o.digest(o.after(p, maxTS+1)); scan(p, maxTS+1) != want {
			t.Fatalf("%s: scan from update %d %+v differs from the brute-force suffix", label, i, p)
		}
	}
	for ts := model.Timestamp(0); ts <= maxTS+1; ts++ {
		diff, err := s.GetDiff(ts, ts+3)
		if err != nil {
			t.Fatal(err)
		}
		if o.digest(diff) != o.digest(o.after(position{ts: ts - 1, seq: seqComplete}, ts+3)) {
			t.Fatalf("%s: GetDiff(%d, %d) differs from the brute-force filter", label, ts, ts+3)
		}

		// The replay a GetGraph pays is exactly the stream distance from
		// the base it chose; records the fence walk discards before that
		// base position are not replay. Resolving the base first also
		// warms the cache, so chain deltas are not counted below.
		s.sealMu.RLock()
		_, base, err := s.basePosLocked(ctx, ts)
		s.sealMu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		before := s.Stats().ReplayedUpdates
		g, err := s.GetGraph(ts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Stats().ReplayedUpdates-before, uint64(len(o.after(base, ts+1))); got != want {
			t.Fatalf("%s: GetGraph(%d) from base %+v replayed %d updates, want %d", label, ts, base, got, want)
		}
		if o.digest(g.Export()) != o.digest(o.graphAt(ts).Export()) {
			t.Fatalf("%s: GetGraph(%d) differs from the brute-force graph", label, ts)
		}

		tg, err := s.GetTemporalGraph(ts, ts+4)
		if err != nil {
			t.Fatal(err)
		}
		for at := ts; at < ts+4; at++ {
			if o.digest(tg.Snapshot(at).Export()) != o.digest(o.graphAt(at).Export()) {
				t.Fatalf("%s: GetTemporalGraph(%d, %d) at %d differs from the brute-force graph", label, ts, ts+4, at)
			}
		}
	}
}

// TestFenceScanMatchesBruteForce drives seeded histories through appends,
// policy and eager mid-timestamp snapshots, seals and reopens at a fence
// stride of 2 or 3, and checks every read path against a brute-force
// filter over the appended slice.
func TestFenceScanMatchesBruteForce(t *testing.T) {
	defer func(old int) { fenceStride = old }(fenceStride)
	for seed := int64(1); seed <= 3; seed++ {
		fenceStride = 2 + int(seed%2)
		t.Run(fmt.Sprintf("seed=%d/stride=%d", seed, fenceStride), func(t *testing.T) {
			us := fenceHistory(seed, 180)
			o := &fenceOracle{t: t, us: us, pos: streamPositions(us), codec: enc.NewCodec(strstore.NewMem())}
			dir := t.TempDir()
			codec := enc.NewCodec(strstore.NewMem())
			open := func() *Store {
				s, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 25, PartitionEvery: 50})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			s := open()
			defer func() { s.Close() }()
			reopened := false
			for i, k, sinceSnap := 0, 0, 0; i < len(us); k++ {
				n := min(1+k%4, len(us)-i) // Append and AppendBatch alike
				if err := s.AppendBatch(us[i : i+n]); err != nil {
					t.Fatal(err)
				}
				i, sinceSnap = i+n, sinceSnap+n
				if sinceSnap >= 16 && i < len(us) && us[i].TS == us[i-1].TS {
					snapshotNow(t, s) // eager, mid-timestamp
					sinceSnap = 0
				}
				if i >= 120 && !reopened {
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					s, reopened = open(), true
				}
			}
			s.WaitSnapshots()
			if got := len(s.SealedBounds()); got < 2 {
				t.Fatalf("%d seals, want at least 2", got)
			}
			midTS := false
			for _, e := range s.active().elems() {
				for i := 0; i+1 < len(us); i++ {
					midTS = midTS || (o.pos[i] == e.pos && us[i+1].TS == e.pos.ts)
				}
			}
			if !midTS {
				t.Fatal("no mid-timestamp snapshot survives in the active segment")
			}
			o.check(s, "live")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = open()
			o.check(s, "reopened")
		})
	}
}
