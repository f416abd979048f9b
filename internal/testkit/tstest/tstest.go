// Package tstest is the TimeStore cross-configuration equivalence harness:
// it drives differently-configured stores (delta chains vs fulls only,
// different snapshot policies) through identical seeded workloads and
// asserts byte-identical observable results — GetGraph, GetDiff,
// ScanGraphs — at every commit timestamp. Delta chains and snapshot
// placement are pure accelerators; any observable divergence between
// configurations is a bug, and this package is the oracle that says so.
//
// Byte identity is checked through a shared comparator codec: each store
// interns strings into its own table, so raw encodings differ across
// stores — re-encoding both sides' decoded updates with one neutral codec
// yields comparable bytes.
package tstest

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/testkit/vfstest"
	"aion/internal/timestore"
)

// GenWorkload builds a deterministic, valid update stream from the seed:
// node/rel inserts, property updates, rel deletes, with occasionally
// repeated timestamps (exercising per-timestamp sequence numbers) and
// timestamps advancing by 0 or 1 so policy snapshots land mid-stream.
func GenWorkload(seed int64, n int) []model.Update {
	rng := rand.New(rand.NewSource(seed))
	type relInfo struct {
		id       model.RelID
		src, tgt model.NodeID
	}
	var (
		us       []model.Update
		nodes    []model.NodeID
		rels     []relInfo
		nextNode model.NodeID = 1
		nextRel  model.RelID  = 1
	)
	labels := []string{"Person", "City", "Org"}
	ts := model.Timestamp(1)
	for len(us) < n {
		ts += model.Timestamp(rng.Intn(2))
		switch r := rng.Intn(10); {
		case r < 4 || len(nodes) < 2:
			id := nextNode
			nextNode++
			us = append(us, model.AddNode(ts, id, []string{labels[rng.Intn(len(labels))]},
				model.Properties{"n": model.IntValue(int64(id))}))
			nodes = append(nodes, id)
		case r < 6:
			i := rng.Intn(len(nodes))
			src, tgt := nodes[i], nodes[(i+1)%len(nodes)]
			id := nextRel
			nextRel++
			us = append(us, model.AddRel(ts, id, src, tgt, "KNOWS",
				model.Properties{"w": model.IntValue(int64(id))}))
			rels = append(rels, relInfo{id: id, src: src, tgt: tgt})
		case r < 8:
			id := nodes[rng.Intn(len(nodes))]
			us = append(us, model.UpdateNode(ts, id, nil, nil,
				model.Properties{"v": model.IntValue(int64(rng.Intn(100)))}, nil))
		case r < 9 && len(rels) > 0:
			ri := rels[rng.Intn(len(rels))]
			us = append(us, model.UpdateRel(ts, ri.id, ri.src, ri.tgt,
				model.Properties{"w": model.IntValue(int64(rng.Intn(100)))}, nil))
		default:
			if len(rels) == 0 {
				continue
			}
			i := rng.Intn(len(rels))
			ri := rels[i]
			us = append(us, model.DeleteRel(ts, ri.id, ri.src, ri.tgt))
			rels[i] = rels[len(rels)-1]
			rels = rels[:len(rels)-1]
		}
	}
	return us
}

// Comparator canonicalizes updates from different stores into comparable
// bytes via one neutral codec.
type Comparator struct {
	codec *enc.Codec
	buf   []byte
}

// NewComparator returns a fresh comparator with its own string table.
func NewComparator() *Comparator {
	return &Comparator{codec: enc.NewCodec(strstore.NewMem())}
}

// Encode returns u's canonical encoding (valid until the next call).
func (c *Comparator) Encode(tb testing.TB, u model.Update) []byte {
	tb.Helper()
	b, err := c.codec.AppendUpdate(c.buf[:0], u)
	if err != nil {
		tb.Fatalf("tstest: canonical encode: %v", err)
	}
	c.buf = b
	return b
}

// Digest folds an update stream into one comparable string of length-
// prefixed canonical records.
func (c *Comparator) Digest(tb testing.TB, us []model.Update) string {
	tb.Helper()
	var sb strings.Builder
	for _, u := range us {
		b := c.Encode(tb, u)
		fmt.Fprintf(&sb, "%d:", len(b))
		sb.Write(b)
	}
	return sb.String()
}

// GraphDigest is Digest over a graph's canonical insertion-update export.
func (c *Comparator) GraphDigest(tb testing.TB, g *memgraph.Graph) string {
	tb.Helper()
	return c.Digest(tb, g.Export())
}

// Store couples an open TimeStore with the codec and filesystem it was
// opened against, so tests can crash and reopen it.
type Store struct {
	*timestore.Store
	Codec *enc.Codec
	FS    *vfstest.FaultFS
	Opts  timestore.Options
}

// OpenStore opens a TimeStore on a fresh in-memory FaultFS. Dir defaults
// to "ts".
func OpenStore(tb testing.TB, opts timestore.Options) *Store {
	tb.Helper()
	fs := vfstest.NewFaultFS()
	st, err := openOn(fs, enc.NewCodec(strstore.NewMem()), &opts)
	if err != nil {
		tb.Fatalf("tstest: open: %v", err)
	}
	return st
}

// Reopen closes nothing (the FS may have crashed) and opens a new store
// over the same filesystem and codec, running recovery.
func (s *Store) Reopen(tb testing.TB) *Store {
	tb.Helper()
	st, err := openOn(s.FS, s.Codec, &s.Opts)
	if err != nil {
		tb.Fatalf("tstest: reopen: %v", err)
	}
	return st
}

func openOn(fs *vfstest.FaultFS, codec *enc.Codec, opts *timestore.Options) (*Store, error) {
	o := *opts
	if o.Dir == "" {
		o.Dir = "ts"
	}
	o.FS = fs
	st, err := timestore.Open(codec, o)
	if err != nil {
		return nil, err
	}
	return &Store{Store: st, Codec: codec, FS: fs, Opts: o}, nil
}

// Drive replays the workload into the store through a deterministic mix of
// single appends and batches, flushing every flushEvery updates. Both
// stores of an equivalence pair must be driven with identical calls.
func Drive(tb testing.TB, st *Store, us []model.Update, flushEvery int) {
	tb.Helper()
	i := 0
	for i < len(us) {
		// Batch sizes mix 1 and 5, so single-update and multi-update
		// batches are both exercised deterministically.
		n := 1
		if (i/4)%2 == 1 {
			n = 5
		}
		if i+n > len(us) {
			n = len(us) - i
		}
		if err := st.AppendBatch(us[i : i+n]); err != nil {
			tb.Fatalf("tstest: append batch at %d: %v", i, err)
		}
		i += n
		if flushEvery > 0 && i%flushEvery == 0 {
			if err := st.Flush(); err != nil {
				tb.Fatalf("tstest: flush at %d: %v", i, err)
			}
		}
	}
	if err := st.Flush(); err != nil {
		tb.Fatalf("tstest: final flush: %v", err)
	}
}

// AssertSameGraph fails unless both stores materialize byte-identical
// graphs at ts.
func AssertSameGraph(tb testing.TB, cmp *Comparator, a, b *Store, ts model.Timestamp) {
	tb.Helper()
	ga, err := a.GetGraphContext(context.Background(), ts)
	if err != nil {
		tb.Fatalf("tstest: %s GetGraph(%d): %v", a.name(), ts, err)
	}
	gb, err := b.GetGraphContext(context.Background(), ts)
	if err != nil {
		tb.Fatalf("tstest: %s GetGraph(%d): %v", b.name(), ts, err)
	}
	da, db := cmp.GraphDigest(tb, ga), cmp.GraphDigest(tb, gb)
	if da != db {
		tb.Fatalf("tstest: GetGraph(%d) diverges between %s and %s (%d vs %d nodes, %d vs %d rels)",
			ts, a.name(), b.name(), ga.NodeCount(), gb.NodeCount(), ga.RelCount(), gb.RelCount())
	}
}

// AssertSameDiff fails unless both stores return byte-identical update
// streams for [start, end).
func AssertSameDiff(tb testing.TB, cmp *Comparator, a, b *Store, start, end model.Timestamp) {
	tb.Helper()
	ua, err := a.GetDiffContext(context.Background(), start, end)
	if err != nil {
		tb.Fatalf("tstest: %s GetDiff(%d,%d): %v", a.name(), start, end, err)
	}
	ub, err := b.GetDiffContext(context.Background(), start, end)
	if err != nil {
		tb.Fatalf("tstest: %s GetDiff(%d,%d): %v", b.name(), start, end, err)
	}
	if len(ua) != len(ub) {
		tb.Fatalf("tstest: GetDiff(%d,%d): %s returned %d updates, %s returned %d",
			start, end, a.name(), len(ua), b.name(), len(ub))
	}
	for i := range ua {
		ea := string(cmp.Encode(tb, ua[i]))
		if eb := string(cmp.Encode(tb, ub[i])); ea != eb {
			tb.Fatalf("tstest: GetDiff(%d,%d) update %d diverges: %v vs %v",
				start, end, i, ua[i], ub[i])
		}
	}
}

// AssertSameScan fails unless ScanGraphs emits byte-identical snapshot
// series from both stores.
func AssertSameScan(tb testing.TB, cmp *Comparator, a, b *Store, start, end, step model.Timestamp) {
	tb.Helper()
	da := scanDigests(tb, cmp, a, start, end, step)
	db := scanDigests(tb, cmp, b, start, end, step)
	if len(da) != len(db) {
		tb.Fatalf("tstest: ScanGraphs(%d,%d,%d): %s emitted %d graphs, %s emitted %d",
			start, end, step, a.name(), len(da), b.name(), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			tb.Fatalf("tstest: ScanGraphs(%d,%d,%d) graph %d (ts %d) diverges between %s and %s",
				start, end, step, i, start+model.Timestamp(i)*step, a.name(), b.name())
		}
	}
}

func scanDigests(tb testing.TB, cmp *Comparator, st *Store, start, end, step model.Timestamp) []string {
	tb.Helper()
	var out []string
	err := st.ScanGraphsContext(context.Background(), start, end, step, func(g *memgraph.Graph) bool {
		out = append(out, cmp.GraphDigest(tb, g))
		return true
	})
	if err != nil {
		tb.Fatalf("tstest: %s ScanGraphs(%d,%d,%d): %v", st.name(), start, end, step, err)
	}
	return out
}

// name labels a store by its policy and chain config in failure messages.
func (s *Store) name() string {
	return fmt.Sprintf("store(every=%d,chain=%d)", s.Opts.SnapshotEveryOps, s.Opts.DeltaChainLength)
}
