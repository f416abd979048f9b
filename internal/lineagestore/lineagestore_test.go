package lineagestore

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/vfs"
)

func openStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(enc.NewCodec(strstore.NewMem()), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func apply(t *testing.T, s *Store, us ...model.Update) {
	t.Helper()
	for _, u := range us {
		if err := s.Apply(u); err != nil {
			t.Fatalf("apply %v: %v", u, err)
		}
	}
}

func TestNodePointLookup(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, Options{})
	apply(t, s,
		model.AddNode(1, 7, []string{"A"}, model.Properties{"v": model.IntValue(1)}),
		model.UpdateNode(5, 7, nil, nil, model.Properties{"v": model.IntValue(2)}, nil),
		model.DeleteNode(9, 7),
	)
	if ns, _ := s.GetNodeContext(ctx, 7, 0, 0); len(ns) != 0 {
		t.Error("before creation must be absent")
	}
	ns, err := s.GetNodeContext(ctx, 7, 3, 3)
	if err != nil || len(ns) != 1 {
		t.Fatalf("at 3: %v %v", ns, err)
	}
	if ns[0].Props["v"].Int() != 1 {
		t.Error("version 1 state")
	}
	if ns[0].Valid.Start != 1 || ns[0].Valid.End != 5 {
		t.Errorf("interval = %+v", ns[0].Valid)
	}
	ns, _ = s.GetNodeContext(ctx, 7, 6, 6)
	if len(ns) != 1 || ns[0].Props["v"].Int() != 2 {
		t.Error("version 2 state")
	}
	if ns, _ := s.GetNodeContext(ctx, 7, 9, 9); len(ns) != 0 {
		t.Error("after deletion must be absent")
	}
	if ns, _ := s.GetNodeContext(ctx, 999, 5, 5); len(ns) != 0 {
		t.Error("unknown node")
	}
}

func TestNodeHistoryRange(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, Options{})
	apply(t, s,
		model.AddNode(1, 7, nil, model.Properties{"v": model.IntValue(1)}),
		model.UpdateNode(5, 7, nil, nil, model.Properties{"v": model.IntValue(2)}, nil),
		model.DeleteNode(9, 7),
		model.AddNode(12, 7, nil, model.Properties{"v": model.IntValue(3)}),
	)
	hist, err := s.GetNodeContext(ctx, 7, 0, model.TSInfinity)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history has %d versions, want 3", len(hist))
	}
	checks := []struct {
		v          int64
		start, end model.Timestamp
	}{{1, 1, 5}, {2, 5, 9}, {3, 12, model.TSInfinity}}
	for i, c := range checks {
		if hist[i].Props["v"].Int() != c.v || hist[i].Valid.Start != c.start || hist[i].Valid.End != c.end {
			t.Errorf("version %d = v%d %+v, want v%d [%d,%d)",
				i, hist[i].Props["v"].Int(), hist[i].Valid, c.v, c.start, c.end)
		}
	}
	// Bounded range excludes outside versions.
	mid, _ := s.GetNodeContext(ctx, 7, 5, 9)
	if len(mid) != 1 || mid[0].Props["v"].Int() != 2 {
		t.Errorf("range [5,9): %d versions", len(mid))
	}
	if _, err := s.GetNodeContext(ctx, 7, 9, 5); err == nil {
		t.Error("inverted interval must fail")
	}
}

func TestRelationshipLifecycle(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, Options{})
	apply(t, s,
		model.AddNode(1, 0, nil, nil),
		model.AddNode(1, 1, nil, nil),
		model.AddRel(2, 5, 0, 1, "KNOWS", model.Properties{"w": model.FloatValue(1)}),
		model.UpdateRel(4, 5, 0, 1, model.Properties{"w": model.FloatValue(2)}, nil),
		model.DeleteRel(6, 5, 0, 1),
	)
	rs, err := s.GetRelationshipContext(ctx, 5, 3, 3)
	if err != nil || len(rs) != 1 {
		t.Fatalf("at 3: %v %v", rs, err)
	}
	if rs[0].Label != "KNOWS" || rs[0].Src != 0 || rs[0].Tgt != 1 {
		t.Error("rel identity")
	}
	if rs[0].Props["w"].Float() != 1 {
		t.Error("initial weight")
	}
	rs, _ = s.GetRelationshipContext(ctx, 5, 5, 5)
	if len(rs) != 1 || rs[0].Props["w"].Float() != 2 {
		t.Error("updated weight")
	}
	if rs, _ := s.GetRelationshipContext(ctx, 5, 7, 7); len(rs) != 0 {
		t.Error("deleted rel visible")
	}
	hist, _ := s.GetRelationshipContext(ctx, 5, 0, model.TSInfinity)
	if len(hist) != 2 {
		t.Fatalf("rel history %d versions, want 2", len(hist))
	}
	if hist[1].Valid.End != 6 {
		t.Errorf("last version end = %d, want 6", hist[1].Valid.End)
	}
}

func TestGetRelationshipsDirections(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, Options{})
	apply(t, s,
		model.AddNode(1, 0, nil, nil),
		model.AddNode(1, 1, nil, nil),
		model.AddNode(1, 2, nil, nil),
		model.AddRel(2, 0, 0, 1, "A", nil), // out of 0
		model.AddRel(3, 1, 2, 0, "B", nil), // in to 0
	)
	out, err := s.GetRelationshipsContext(ctx, 0, model.Outgoing, 4, 4)
	if err != nil || len(out) != 1 || out[0][0].Label != "A" {
		t.Fatalf("outgoing: %v %v", out, err)
	}
	in, _ := s.GetRelationshipsContext(ctx, 0, model.Incoming, 4, 4)
	if len(in) != 1 || in[0][0].Label != "B" {
		t.Fatalf("incoming: %v", in)
	}
	both, _ := s.GetRelationshipsContext(ctx, 0, model.Both, 4, 4)
	if len(both) != 2 {
		t.Fatalf("both: %d", len(both))
	}
	// Before the rels existed.
	none, _ := s.GetRelationshipsContext(ctx, 0, model.Both, 1, 1)
	if len(none) != 0 {
		t.Error("no rels at ts 1")
	}
}

func TestGetRelationshipsAfterDeletion(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, Options{})
	apply(t, s,
		model.AddNode(1, 0, nil, nil),
		model.AddNode(1, 1, nil, nil),
		model.AddRel(2, 0, 0, 1, "R", nil),
		model.DeleteRel(4, 0, 0, 1),
		model.AddRel(6, 1, 0, 1, "R2", nil), // second rel, same endpoints
	)
	at3, _ := s.GetRelationshipsContext(ctx, 0, model.Outgoing, 3, 3)
	if len(at3) != 1 || at3[0][0].ID != 0 {
		t.Errorf("at 3: %v", at3)
	}
	at5, _ := s.GetRelationshipsContext(ctx, 0, model.Outgoing, 5, 5)
	if len(at5) != 0 {
		t.Errorf("at 5 (gap): %v", at5)
	}
	at7, _ := s.GetRelationshipsContext(ctx, 0, model.Outgoing, 7, 7)
	if len(at7) != 1 || at7[0][0].ID != 1 {
		t.Errorf("at 7: %v", at7)
	}
	// Range covering everything returns both rels' histories.
	all, _ := s.GetRelationshipsContext(ctx, 0, model.Outgoing, 0, model.TSInfinity)
	if len(all) != 2 {
		t.Errorf("full history: %d rels", len(all))
	}
}

func TestMaterializationThresholdCorrectness(t *testing.T) {
	ctx := context.Background()
	// Regardless of chain threshold, reconstruction must give the same
	// answer; the threshold only changes performance/space (Fig 11).
	for _, threshold := range []int{-1, 1, 2, 4, 8, 16} {
		s := openStore(t, Options{ChainThreshold: threshold})
		apply(t, s, model.AddNode(0, 1, nil, model.Properties{"p0": model.IntValue(0)}))
		for i := 1; i <= 32; i++ {
			apply(t, s, model.UpdateNode(model.Timestamp(i), 1, nil, nil,
				model.Properties{"p" + string(rune('0'+i%10)): model.IntValue(int64(i))}, nil))
		}
		ns, err := s.GetNodeContext(ctx, 1, 32, 32)
		if err != nil || len(ns) != 1 {
			t.Fatalf("threshold %d: %v %v", threshold, ns, err)
		}
		// Final state must reflect the last write of every key.
		if ns[0].Props["p2"].Int() != 32 {
			t.Errorf("threshold %d: p2 = %d, want 32", threshold, ns[0].Props["p2"].Int())
		}
		// Mid-history lookups too.
		mid, _ := s.GetNodeContext(ctx, 1, 17, 17)
		if len(mid) != 1 || mid[0].Props["p7"].Int() != 17 {
			t.Errorf("threshold %d: mid-history wrong", threshold)
		}
	}
}

func TestMaterializationReducesStorageVsEveryUpdate(t *testing.T) {
	// Chain threshold 1 (materialize always) must use more index space
	// than threshold 4 under a property-update-heavy load.
	size := func(threshold int) int64 {
		s := openStore(t, Options{ChainThreshold: threshold})
		apply(t, s, model.AddNode(0, 1, nil, bigProps(16)))
		for i := 1; i <= 200; i++ {
			apply(t, s, model.UpdateNode(model.Timestamp(i), 1, nil, nil,
				model.Properties{"k": model.IntValue(int64(i))}, nil))
		}
		return s.DiskBytes()
	}
	always, every4 := size(1), size(4)
	if always <= every4 {
		t.Errorf("materialize-always %d bytes <= threshold-4 %d bytes", always, every4)
	}
}

func bigProps(n int) model.Properties {
	p := model.Properties{}
	for i := 0; i < n; i++ {
		p["prop"+string(rune('a'+i))] = model.StringValue("some payload value")
	}
	return p
}

func TestMonotonicityEnforced(t *testing.T) {
	s := openStore(t, Options{})
	apply(t, s, model.AddNode(10, 0, nil, nil))
	if err := s.Apply(model.AddNode(5, 1, nil, nil)); err == nil {
		t.Error("decreasing ts must fail")
	}
	if s.AppliedThrough() != 10 {
		t.Errorf("AppliedThrough = %d", s.AppliedThrough())
	}
}

func TestDeltaOnMissingEntityFails(t *testing.T) {
	s := openStore(t, Options{})
	if err := s.Apply(model.UpdateNode(1, 99, nil, nil, nil, nil)); err == nil {
		t.Error("delta for missing node must fail")
	}
	if err := s.Apply(model.UpdateRel(1, 99, 0, 0, nil, nil)); err == nil {
		t.Error("delta for missing rel must fail")
	}
}

func TestReopenPreservesHistory(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	strs, err := strstore.OpenFS(vfs.OS, dir+"/strings.db")
	if err != nil {
		t.Fatal(err)
	}
	codec := enc.NewCodec(strs)
	s, err := Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	apply(t, s,
		model.AddNode(1, 0, []string{"P"}, model.Properties{"v": model.IntValue(1)}),
		model.AddNode(2, 1, nil, nil),
		model.AddRel(3, 0, 0, 1, "R", nil),
		model.UpdateNode(4, 0, nil, nil, model.Properties{"v": model.IntValue(2)}, nil),
	)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := strs.Close(); err != nil {
		t.Fatal(err)
	}

	strs2, err := strstore.OpenFS(vfs.OS, dir+"/strings.db")
	if err != nil {
		t.Fatal(err)
	}
	defer strs2.Close()
	s2, err := Open(enc.NewCodec(strs2), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := s2.GetNodeContext(ctx, 0, 3, 3)
	if err != nil || len(ns) != 1 || ns[0].Props["v"].Int() != 1 {
		t.Fatalf("reopened version at 3: %v %v", ns, err)
	}
	ns, _ = s2.GetNodeContext(ctx, 0, 4, 4)
	if len(ns) != 1 || ns[0].Props["v"].Int() != 2 {
		t.Fatalf("reopened version at 4: %v", ns)
	}
	rels, err := s2.GetRelationshipsContext(ctx, 0, model.Outgoing, 3, 3)
	if err != nil || len(rels) != 1 {
		t.Fatalf("reopened rels: %v %v", rels, err)
	}
	// New appends continue after the checkpoint's position.
	if err := s2.Apply(model.UpdateNode(9, 0, nil, nil,
		model.Properties{"v": model.IntValue(3)}, nil)); err != nil {
		t.Fatal(err)
	}
	ns, _ = s2.GetNodeContext(ctx, 0, 9, 9)
	if len(ns) != 1 || ns[0].Props["v"].Int() != 3 {
		t.Fatalf("append after reopen: %v", ns)
	}
	// Trees flushed but not closed are named by no checkpoint: Open wipes
	// them, for the owner to rebuild.
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(enc.NewCodec(strs2), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.holdsData() || s3.AppliedThrough() != -1 {
		t.Fatalf("reopen without a checkpoint holds data at %d", s3.AppliedThrough())
	}
}

func TestGetRelationshipsInvalidInterval(t *testing.T) {
	ctx := context.Background()
	s := openStore(t, Options{})
	if _, err := s.GetRelationshipsContext(ctx, 0, model.Both, 5, 1); err == nil {
		t.Error("inverted interval must fail")
	}
	if _, err := s.GetRelationshipContext(ctx, 0, 5, 1); err == nil {
		t.Error("inverted interval must fail")
	}
}

// TestApplyAddRelAllocations pins the write path: indexing a relationship
// builds its record, its three keys and the neighbour values in the store's
// one scratch buffer, and the page cache pins and unpins the pages the three
// trees touch by relinking them. Nothing is left (the trees here are a leaf
// deep and the loop too short to split one).
func TestApplyAddRelAllocations(t *testing.T) {
	s := openStore(t, Options{})
	defer s.Close()
	apply(t, s, model.AddNode(1, 1, nil, nil), model.AddNode(1, 2, nil, nil))
	batch := []model.Update{model.AddRel(2, 0, 1, 2, "KNOWS", nil)}
	n := testing.AllocsPerRun(50, func() {
		batch[0].RelID++
		batch[0].TS++
		if err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if n > 0 {
		t.Errorf("ApplyBatch of one OpAddRel allocates %.0f times, want none", n)
	}
	if rels, err := s.GetRelationshipsContext(context.Background(), 1, model.Outgoing, batch[0].TS, batch[0].TS); err != nil || len(rels) != 51 {
		t.Errorf("node 1 has %d out-relationships (%v), want 51", len(rels), err)
	}
}

// TestReadAllocations pins what a cached read allocates, so that a key built
// on the heap, a map or a copied cell shows up here: a point read allocates
// its answer — the version, its label slice and property map, what the
// decoder builds them from, the result slice — and nothing for the descent;
// collecting a node's live incoming relationships allocates nothing at all.
func TestReadAllocations(t *testing.T) {
	s := openStore(t, Options{})
	defer s.Close()
	apply(t, s, model.AddNode(1, 1, []string{"A"}, model.Properties{"k": model.IntValue(1)}))
	for i := 0; i < 12; i++ { // two relationships to each of six neighbours
		apply(t, s, model.AddNode(model.Timestamp(2+i), model.NodeID(2+i), nil, nil),
			model.AddRel(model.Timestamp(2+i), model.RelID(i), 1, model.NodeID(2+i%6), "R", nil))
	}
	apply(t, s, model.DeleteRel(20, 3, 1, 5), model.UpdateNode(21, 1, nil, nil, model.Properties{"k": model.IntValue(2)}, nil))
	ctx := context.Background()
	point := testing.AllocsPerRun(100, func() {
		if ns, err := s.GetNodeContext(ctx, 1, 5, 5); err != nil || len(ns) != 1 {
			t.Fatal(ns, err)
		}
	})
	if point > 6 {
		t.Errorf("a cached point read allocates %.0f times, want at most 6", point)
	}
	srcs := make([]source, 0, 16)
	live := testing.AllocsPerRun(100, func() {
		if got, err := scanIncoming(ctx, nil, s.in, srcs, 2, 30, true, false); err != nil || len(got) != 2 {
			t.Fatal(got, err)
		}
	})
	if live != 0 {
		t.Errorf("collecting a node's live incoming relationships allocates %.0f times, want 0", live)
	}
}

// cancelAfter is a context whose Err turns Canceled after a number of calls:
// it cancels a read at its n-th cooperative check, wherever that is.
type cancelAfter struct {
	context.Context
	left *atomic.Int64
}

func (c cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledReadsReleaseEverything cancels the three multi-cursor reads at
// every one of their cancellation points, while a writer keeps applying
// batches, and requires that no read leaves a tree locked: afterwards the
// writer still gets through.
func TestCancelledReadsReleaseEverything(t *testing.T) {
	s := openStore(t, Options{})
	defer s.Close()
	const hub, spokes = 0, 3 * cancelStride
	var us []model.Update
	var ids []model.NodeID
	for i := 0; i <= spokes; i++ {
		us, ids = append(us, model.AddNode(1, model.NodeID(i), nil, nil)), append(ids, model.NodeID(i))
	}
	for i := 1; i <= spokes; i++ {
		us = append(us, model.AddRel(2, model.RelID(i), hub, model.NodeID(i), "R", nil))
	}
	for ts := 3; ts < 3+4*cancelStride; ts++ { // a history long enough to stride
		us = append(us, model.UpdateNode(model.Timestamp(ts), hub, nil, nil, model.Properties{"k": model.IntValue(int64(ts))}, nil))
	}
	if err := s.ApplyBatch(us); err != nil {
		t.Fatal(err)
	}
	last := us[len(us)-1].TS
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		var err error
		for ts := last + 1; err == nil; ts++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
				err = s.ApplyBatch([]model.Update{model.UpdateNode(ts, 1, nil, nil, model.Properties{"k": model.IntValue(int64(ts))}, nil)})
			}
		}
		done <- err
	}()
	reads := map[string]func(ctx context.Context) error{
		"relationships": func(ctx context.Context) error {
			_, err := s.GetRelationshipsContext(ctx, hub, model.Both, 2, last)
			return err
		},
		"states": func(ctx context.Context) error {
			_, err := s.NodesAtContext(ctx, ids, last, nil)
			return err
		},
		"history": func(ctx context.Context) error { _, err := s.GetNodeContext(ctx, hub, 0, last); return err },
	}
	for name, read := range reads {
		points := 0
		for ; ; points++ {
			left := new(atomic.Int64)
			left.Store(int64(points))
			err := read(cancelAfter{context.Background(), left})
			if err == nil {
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancelled at check %d: %v", name, points, err)
			}
		}
		if points < 3 {
			t.Errorf("%s ran through only %d cancellation points", name, points)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	apply(t, s, model.AddNode(us[len(us)-1].TS+1<<20, spokes+1, nil, nil)) // every tree lock is free
}

// TestVersionValueGolden pins the bytes the trees store: a disk format (the
// ALC6 trees). A version value is the delta-chain position, then
// enc.AppendVersion's record — the header and the body, with neither the id
// nor the timestamp the key holds, nor a relationship's source, which its key
// in the clustered tree leads with. in.idx maps (tgt, rel, ts) to that source
// and the deletion flag.
func TestVersionValueGolden(t *testing.T) {
	s := openStore(t, Options{})
	defer s.Close()
	apply(t, s, model.AddNode(3, 300, []string{"Person"}, model.Properties{"n": model.IntValue(-1)}),
		model.UpdateNode(4, 300, nil, nil, model.Properties{"n": model.IntValue(2)}, nil),
		model.AddRel(5, 7, 300, 1, "KNOWS", nil),
		model.DeleteRel(6, 7, 300, 1))
	for _, c := range []struct {
		name string
		tree func() ([]byte, bool, error)
		want string
	}{
		// pos | header | labels: count, ref "Person" | props: count, ref "n" (int), varint -1
		{"node 300 at 3", func() ([]byte, bool, error) { return s.nodes.Get(enc.KeyNode(300, 3)) }, "00000100011001"},
		// pos 1 | delta header | no labels | props: count, ref "n" (int), varint 2
		{"node 300 at 4", func() ([]byte, bool, error) { return s.nodes.Get(enc.KeyNode(300, 4)) }, "010800011004"},
		// under (src 300, rel 7, ts 5) = 02012c 0107 0105: pos | header | tgt 1 | ref "KNOWS" | no props
		{"rel 7 at 5", func() ([]byte, bool, error) { return s.outRels.Get(mustHex(t, "02012c01070105")) }, "0001012000"},
		// pos | tombstone header | tgt 1
		{"rel 7 at 6", func() ([]byte, bool, error) { return s.outRels.Get(mustHex(t, "02012c01070106")) }, "000501"},
		// under (tgt 1, rel 7, ts 5) = 0101 0107 0105: src 300 << 1 | live
		{"in.idx 1, 7 at 5", func() ([]byte, bool, error) { return s.in.Get(mustHex(t, "010101070105")) }, "d804"},
		// src 300 << 1 | deleted
		{"in.idx 1, 7 at 6", func() ([]byte, bool, error) { return s.in.Get(mustHex(t, "010101070106")) }, "d904"},
	} {
		v, ok, err := c.tree()
		if got := fmt.Sprintf("%x", v); err != nil || !ok || got != c.want {
			t.Errorf("%s: %s (%v, %v), want %s", c.name, got, ok, err, c.want)
		}
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
