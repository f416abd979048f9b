package timestore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"aion/internal/enc"
	"aion/internal/graphstore"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/pool"
	"aion/internal/refmodel"
	"aion/internal/strstore"
	"aion/internal/vfs"
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

// recreateTail extends a fenceHistory by two timestamps: the first deletes
// nodes 0..3, the second creates them again with the content they had. The
// latest graph then holds incarnations younger than every chain element taken
// before, equal to the ones those elements hold wherever the node was not
// updated in between — what a loaded element must not share.
func recreateTail(us []model.Update) []model.Update {
	var last [4]model.Update
	for _, u := range us {
		if int(u.NodeID) < len(last) {
			last[u.NodeID] = u
		}
	}
	ts := us[len(us)-1].TS + 1
	for id := range last {
		us = append(us, model.DeleteNode(ts, model.NodeID(id)))
	}
	for id, u := range last {
		us = append(us, model.AddNode(ts+1, model.NodeID(id), []string{"N"}, u.SetProps))
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
	m := &refmodel.Model{}
	m.Apply(o.us...)
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

		checkWindow(t, s, o.codec, m, ts, ts+4, label)
	}
}

// wantYoungerTwins requires what recreateTail is for: some chain element of s
// holds a node that the latest graph holds with equal content and a later
// start.
func (o *fenceOracle) wantYoungerTwins(s *Store) {
	latest := latestOf(o.t, s)
	for _, seg := range s.segs {
		for _, e := range seg.elems() {
			at, twin := o.graphAt(e.pos.ts), false
			at.ForEachNode(func(n *model.Node) bool {
				l := latest.Node(n.ID)
				twin = l != nil && l.Valid.Start > e.pos.ts && l.Props.Equal(n.Props)
				return !twin
			})
			if twin {
				return
			}
		}
	}
	o.t.Fatal("no chain element holds a node the latest graph holds again, equal and younger")
}

// openDecodingAll is Open with the recovery that decodes every record of the
// active log, whatever the newest element covers, and numbers a frame's
// records by decoding them: the reference the peek-only walk and tail-only
// replay must be indistinguishable from.
func openDecodingAll(t *testing.T, codec *enc.Codec, opts Options) *Store {
	t.Helper()
	opts.defaults()
	s := &Store{opts: opts, fs: vfs.OrOS(opts.FS), codec: codec, snaps: newSnapQueue(),
		workerDone: make(chan struct{}), framePool: pool.NewBytes(frameBatchBytes + 4096)}
	ctx := context.Background()
	var err error
	if s.segs, err = openSegments(s.fs, opts.Dir); err != nil {
		t.Fatal(err)
	}
	base, err := s.recoverSealed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	act := s.active()
	s.lastTS, s.seq = act.entry.ts, act.entry.seq
	latest, from := base.Clone(), logStart
	if chain := act.elems(); len(chain) > 0 {
		if latest, err = s.loadElem(ctx, act, chain, len(chain)-1, nil, nil); err != nil {
			t.Fatal(err)
		}
		from = chain[len(chain)-1].logOff
	}
	var aerr error
	var frame []model.Update // the records of the frame at off
	off := int64(-1)
	advance := func() {
		if len(frame) > 0 {
			s.advanceLocked(frame[0].TS, off, len(frame))
		}
	}
	err = s.replayWal(ctx, act.log, opts.ParallelIO, logStart, logEnd, func(at int64, u model.Update) bool {
		if at != off {
			advance()
			off, frame = at, frame[:0]
		}
		frame = append(frame, u)
		if at >= from {
			aerr = latest.Apply(u)
		}
		return aerr == nil
	})
	advance()
	if err != nil || aerr != nil {
		t.Fatal(err, aerr)
	}
	s.own = &ownGraph{g: latest, updates: s.updateCount}
	s.committed = s.own.Committed
	s.gs = graphstore.New(opts.GraphStoreBytes)
	s.sealEntry = base
	go s.snapshotWorker()
	return s
}

// recovered is everything Open derives from the active log.
type recovered struct {
	Updates, Count uint64
	MinTS, LastTS  model.Timestamp
	Seq            uint32
	Fences         []fence
	Latest         string // the recovered latest graph
}

func (o *fenceOracle) recoveredState(s *Store) recovered {
	act := s.active()
	return recovered{Updates: s.Stats().Updates, Count: act.count, MinTS: act.minTS, LastTS: s.lastTS, Seq: s.seq,
		Fences: append([]fence(nil), act.fences...), Latest: o.digest(latestOf(o.t, s).Export())}
}

// reopenExact closes s and reopens it twice — with the decode-everything
// reference, then with Open — and requires the two recoveries to derive the
// same state while Open decodes only the records at or past the newest
// element's logOff.
func (o *fenceOracle) reopenExact(s *Store, open func() *Store, openRef func() *Store) *Store {
	t := o.t
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ref := openRef()
	want := o.recoveredState(ref)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	var decoded atomic.Int64
	replayDecoded = func(n int) { decoded.Add(int64(n)) }
	s = open()
	replayDecoded = nil
	if got := o.recoveredState(s); !reflect.DeepEqual(got, want) {
		t.Errorf("tail-only recovery derived\n %+v\nthe decode-everything recovery\n %+v", got, want)
	}
	act, from, tail := s.active(), logStart, int64(0)
	if chain := act.elems(); len(chain) > 0 {
		from = chain[len(chain)-1].logOff
	}
	if _, err := act.log.Scan(from, func(_ int64, frame []byte) bool {
		n, _, err := enc.BlockCount(frame)
		tail += int64(n)
		return err == nil
	}); err != nil {
		t.Fatal(err)
	}
	if decoded.Load() != tail {
		t.Errorf("Open decoded %d log records, %d lie at or past the newest element's logOff %d (of %d in the log)",
			decoded.Load(), tail, from, act.count)
	}
	return s
}

// TestFenceScanMatchesBruteForce drives seeded histories through appends,
// policy and eager mid-timestamp snapshots, seals and reopens at a fence
// stride of 2 or 3, and checks every read path against a brute-force
// filter over the appended slice. The fourth run's history ends in re-creations
// (recreateTail): its latest graph holds nodes equal to, and younger than, the
// ones its chain elements hold.
func TestFenceScanMatchesBruteForce(t *testing.T) {
	defer func(old int) { fenceStride = old }(fenceStride)
	for i := int64(0); i < 4; i++ {
		seed, recreate := 1+i%3, i == 3
		fenceStride = 2 + int((seed+i/3)%2) // the seed's own stride, then its other one
		t.Run(fmt.Sprintf("seed=%d/stride=%d/recreate=%v", seed, fenceStride, recreate), func(t *testing.T) {
			us := fenceHistory(seed, 180)
			if recreate {
				us = recreateTail(us)
			}
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
			openRef := func() *Store {
				return openDecodingAll(t, codec, Options{Dir: dir, SnapshotEveryOps: 25, PartitionEvery: 50})
			}
			s := open()
			defer func() { s.Close() }()
			stage, skipped := 0, false
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
				// A reopen every 30 updates leaves the operation policy (25)
				// room to fire in between.
				if i/30 > stage {
					stage = i / 30
					s = o.reopenExact(s, open, openRef)
					chain := s.active().elems()
					skipped = skipped || (len(chain) > 0 && chain[len(chain)-1].logOff > logStart)
				}
			}
			if !skipped {
				t.Fatal("no reopen found an element to start the decode after")
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
			if recreate {
				o.wantYoungerTwins(s)
			}
			o.check(s, "live")
			s = o.reopenExact(s, open, openRef)
			o.check(s, "reopened")
		})
	}
}
