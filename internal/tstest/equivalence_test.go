package tstest_test

// Cross-configuration equivalence: a store writing delta chains and a store
// writing full snapshots only, driven through the identical workload, must be
// observationally indistinguishable — byte-identical GetGraph, GetDiff, and
// ScanGraphs at every commit timestamp, before and after reopen, after a
// crash at every fault index, and under concurrent readers while policy
// snapshots are in flight.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/testkit/tstest"
	"aion/internal/timestore"
)

// monoOpts is the reference configuration: full snapshots only.
func monoOpts() timestore.Options {
	return timestore.Options{SnapshotEveryOps: 50, DeltaChainLength: -1}
}

// chainOpts writes a full, then two deltas, one policy snapshot every 35
// updates.
func chainOpts() timestore.Options {
	return timestore.Options{SnapshotEveryOps: 35, DeltaChainLength: 2}
}

// dueAt returns the timestamp of every every-th update of us: where the
// operation policy falls due, so the chain elements sit at or just past them.
func dueAt(us []model.Update, every int) []model.Timestamp {
	var out []model.Timestamp
	for i := every; i < len(us); i += every {
		out = append(out, us[i].TS)
	}
	return out
}

// TestEquivalenceAcrossSeals is the core harness run: 600 updates lay a
// chain of fulls and deltas in one store and of fulls only in the other, and
// every commit timestamp is compared across configurations.
func TestEquivalenceAcrossSeals(t *testing.T) {
	us := tstest.GenWorkload(7, 600)
	maxTS := us[len(us)-1].TS
	cmp := tstest.NewComparator()

	mono := tstest.OpenStore(t, monoOpts())
	chain := tstest.OpenStore(t, chainOpts())
	tstest.Drive(t, mono, us, 20)
	tstest.Drive(t, chain, us, 20)
	mono.WaitSnapshots()
	chain.WaitSnapshots()
	if st := chain.Stats(); st.DeltaSnapshots < 5 || st.SnapshotErrors != 0 {
		t.Fatalf("chain store wrote %d deltas with %d snapshot errors, want >= 5 and none", st.DeltaSnapshots, st.SnapshotErrors)
	}

	// Every commit timestamp, including 0 (before history).
	for ts := model.Timestamp(0); ts <= maxTS; ts++ {
		tstest.AssertSameGraph(t, cmp, mono, chain, ts)
	}
	// Diff windows: the full history, plus windows straddling every point a
	// policy snapshot fell due, plus seeded random windows.
	tstest.AssertSameDiff(t, cmp, mono, chain, 0, maxTS+1)
	due := dueAt(us, chain.Opts.SnapshotEveryOps)
	for _, b := range due {
		tstest.AssertSameDiff(t, cmp, mono, chain, b-3, b+4)
		tstest.AssertSameDiff(t, cmp, mono, chain, b, b+1)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 25; i++ {
		a := model.Timestamp(rng.Int63n(int64(maxTS)))
		b := a + 1 + model.Timestamp(rng.Int63n(int64(maxTS-a)+1))
		tstest.AssertSameDiff(t, cmp, mono, chain, a, b)
	}
	// Snapshot series across the whole history and dense across two
	// elements.
	tstest.AssertSameScan(t, cmp, mono, chain, 1, maxTS+1, 7)
	tstest.AssertSameScan(t, cmp, mono, chain, due[0]-2, due[1]+3, 1)

	if err := mono.Close(); err != nil {
		t.Fatal(err)
	}
	if err := chain.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalenceColdReopen reopens the chain store (recovery path: the
// chain re-derived from directory state) and re-verifies equivalence against
// a fulls-only reference, then asserts the bounded-replay contract: a graph
// query deep in history on a cold cache loads the nearest full and replays
// at most its deltas and one policy interval of log, not the history before
// it.
func TestEquivalenceColdReopen(t *testing.T) {
	us := tstest.GenWorkload(21, 600)
	maxTS := us[len(us)-1].TS
	cmp := tstest.NewComparator()

	mono := tstest.OpenStore(t, monoOpts())
	chain := tstest.OpenStore(t, chainOpts())
	tstest.Drive(t, mono, us, 20)
	tstest.Drive(t, chain, us, 20)
	if err := chain.Close(); err != nil {
		t.Fatal(err)
	}
	chain = chain.Reopen(t)

	if st := chain.Stats(); st.DeltaSnapshots < 5 {
		t.Fatalf("reopened store reports %d deltas, want >= 5", st.DeltaSnapshots)
	}
	for ts := model.Timestamp(0); ts <= maxTS; ts += 3 {
		tstest.AssertSameGraph(t, cmp, mono, chain, ts)
	}
	tstest.AssertSameGraph(t, cmp, mono, chain, maxTS)
	tstest.AssertSameDiff(t, cmp, mono, chain, 0, maxTS+1)

	// Bounded replay: query two thirds into history on a cold cache. A
	// from-genesis replay would apply >= 10 policy intervals of updates; the
	// chain bounds it by DeltaChainLength deltas plus about one interval of
	// log.
	if err := chain.Close(); err != nil {
		t.Fatal(err)
	}
	chain.Opts.GraphStoreBytes = 1
	chain = chain.Reopen(t)
	every := chain.Opts.SnapshotEveryOps
	ts := us[len(us)*2/3].TS
	naive := 0
	for _, u := range us {
		if u.TS <= ts {
			naive++
		}
	}
	if naive < 10*every {
		t.Fatalf("query ts %d has only %d preceding updates, want >= %d for a meaningful bound",
			ts, naive, 10*every)
	}
	base := chain.Stats().ReplayedUpdates
	if _, err := chain.GetGraphContext(context.Background(), ts); err != nil {
		t.Fatal(err)
	}
	replayed := int(chain.Stats().ReplayedUpdates - base)
	if limit := (chain.Opts.DeltaChainLength + 2) * every; replayed > limit {
		t.Fatalf("GetGraph(%d) replayed %d updates, want <= %d (naive replay: %d)",
			ts, replayed, limit, naive)
	}

	if err := mono.Close(); err != nil {
		t.Fatal(err)
	}
	if err := chain.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalenceActiveDeltaChain is the differential test of the chain's
// deltas: one seeded history through a store that writes two deltas between
// fulls, and through its fulls-only twin. GetGraph
// at every commit timestamp equals a replay from zero in both — with the
// cache warm (ascending, so most misses find their neighbour cached) and
// after a reopen with a one-entry cache (descending, so every element loads
// from its files) — GetDiff is identical, and a reopen recovers the same
// latest graph whether the store rebuilds it from its newest element and the
// log tail or is handed the host's.
func TestEquivalenceActiveDeltaChain(t *testing.T) {
	us := tstest.GenWorkload(33, 900)
	maxTS := us[len(us)-1].TS
	cmp := tstest.NewComparator()
	ref, want := memgraph.New(), make([]string, maxTS+1)
	for i, u := range us {
		if err := ref.Apply(u); err != nil {
			t.Fatal(err)
		}
		if i+1 == len(us) || us[i+1].TS > u.TS {
			want[u.TS] = cmp.GraphDigest(t, ref)
		}
	}
	for ts := 1; ts < len(want); ts++ {
		if want[ts] == "" {
			want[ts] = want[ts-1] // no commit at ts: the state before it
		}
	}
	deltas := tstest.OpenStore(t, timestore.Options{SnapshotEveryOps: 30, DeltaChainLength: 2})
	fulls := tstest.OpenStore(t, timestore.Options{SnapshotEveryOps: 30, DeltaChainLength: -1})
	tstest.Drive(t, deltas, us, 20)
	tstest.Drive(t, fulls, us, 20)
	ds, fs := deltas.Stats(), fulls.Stats()
	if ds.DeltaSnapshots == 0 || ds.SnapshotErrors != 0 {
		t.Fatalf("delta store: %d deltas, %d snapshot errors (%s)", ds.DeltaSnapshots, ds.SnapshotErrors, ds.LastSnapshotError)
	}
	if fs.DeltaSnapshots != 0 || fs.SnapshotErrors != 0 || ds.SnapshotBytes >= fs.SnapshotBytes {
		t.Fatalf("fulls-only twin: %d deltas, %d snapshot errors; chains of %d bytes (deltas) and %d (fulls)", fs.DeltaSnapshots, fs.SnapshotErrors, ds.SnapshotBytes, fs.SnapshotBytes)
	}
	check := func(label string, st *tstest.Store, ts model.Timestamp) {
		t.Helper()
		g, err := st.GetGraphContext(context.Background(), ts)
		if err != nil {
			t.Fatalf("%s: chain=%d GetGraph(%d): %v", label, st.Opts.DeltaChainLength, ts, err)
		}
		if ts > 0 && cmp.GraphDigest(t, g) != want[ts] {
			t.Fatalf("%s: chain=%d GetGraph(%d) differs from a replay from zero", label, st.Opts.DeltaChainLength, ts)
		}
	}
	for ts := model.Timestamp(0); ts <= maxTS; ts++ {
		check("warm", deltas, ts)
		check("warm", fulls, ts)
	}
	tstest.AssertSameDiff(t, cmp, deltas, fulls, 0, maxTS+1)
	tstest.AssertSameDiff(t, cmp, deltas, fulls, maxTS/3, 2*maxTS/3)
	tstest.AssertSameScan(t, cmp, deltas, fulls, 1, maxTS+1, 5)

	for _, st := range []*tstest.Store{deltas, fulls} {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st.Opts.GraphStoreBytes = 1 // the cache keeps its newest entry only
		cold := st.Reopen(t)
		if g, err := cold.Latest(); err != nil || cmp.GraphDigest(t, g) != want[maxTS] {
			t.Fatalf("chain=%d: the latest graph recovered from the chain and the log tail differs from a replay from zero (%v)", st.Opts.DeltaChainLength, err)
		}
		for ts := maxTS; ts >= 0; ts-- {
			check("cold", cold, ts)
		}
		if err := cold.Close(); err != nil {
			t.Fatal(err)
		}
		st.Opts.Host = func() (*memgraph.Graph, model.Timestamp, uint64) { return ref.Clone(), maxTS, uint64(len(us)) }
		hosted := st.Reopen(t)
		g, err := hosted.Latest()
		if hst := hosted.Stats(); err != nil || hst.LatestPulls != 1 || hst.LoadedEntities != 0 {
			t.Fatalf("chain=%d: reopened on a host, Latest took its graph %d times after loading %d entity versions (%v); want 1 and 0",
				st.Opts.DeltaChainLength, hst.LatestPulls, hst.LoadedEntities, err)
		}
		if cmp.GraphDigest(t, g) != want[maxTS] {
			t.Fatalf("chain=%d: the latest graph taken from the host differs from a replay from zero", st.Opts.DeltaChainLength)
		}
		for ts := maxTS; ts >= 0; ts -= 7 {
			check("hosted", hosted, ts)
		}
		if err := hosted.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// driveFaulty pushes the workload tolerating injected faults: appends are
// fail-stop, flushes mark durability. Mirrors the timestore crash sweeps.
func driveFaulty(st *tstest.Store, us []model.Update) (attempted, durable int) {
	for i, u := range us {
		if err := st.AppendBatch([]model.Update{u}); err != nil {
			break
		}
		attempted = i + 1
		if (i+1)%10 == 0 {
			if err := st.Flush(); err == nil {
				durable = attempted
			}
		}
	}
	return attempted, durable
}

// TestCrashEquivalenceSweep crashes a store whose snapshot worker writes
// policy deltas at every mutating-operation fault index, reopens it, and
// checks the recovered state against a clean fulls-only store fed the
// recovered prefix: the two must agree byte-for-byte on graphs and diffs.
// This catches recovery bugs that preserve a consistent-looking but wrong
// history.
func TestCrashEquivalenceSweep(t *testing.T) {
	us := tstest.GenWorkload(11, 160)
	maxTS := us[len(us)-1].TS
	sweepOpts := timestore.Options{SnapshotEveryOps: 10, DeltaChainLength: 1}

	// Fault-free run measures the op count to sweep.
	probe := tstest.OpenStore(t, sweepOpts)
	if att, _ := driveFaulty(probe, us); att != len(us) {
		t.Fatalf("fault-free run stopped after %d/%d updates", att, len(us))
	}
	probe.WaitSnapshots()
	if st := probe.Stats(); st.DeltaSnapshots < 3 || st.SnapshotErrors != 0 {
		t.Fatalf("sweep workload wrote %d deltas with %d snapshot errors, want >= 3 and none", st.DeltaSnapshots, st.SnapshotErrors)
	}
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	n := int(probe.FS.Ops())
	t.Logf("sweeping %d fault indexes × 2 modes with cross-store verification", n)

	cmp := tstest.NewComparator()
	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			runCrashEquivalenceCase(t, cmp, us, maxTS, sweepOpts, k, torn)
		}
	}
}

func runCrashEquivalenceCase(t *testing.T, cmp *tstest.Comparator, us []model.Update, maxTS model.Timestamp, opts timestore.Options, k int, torn bool) {
	t.Helper()
	chain := tstest.OpenStore(t, opts)
	chain.FS.SetTornSync(torn)
	chain.FS.SetFailAfter(int64(k))
	attempted, durable := driveFaulty(chain, us)
	_ = chain.Close() // reaps the worker; errors expected on a failed FS
	chain.FS.Crash()
	chain = chain.Reopen(t)

	rec, err := chain.GetDiffContext(context.Background(), 0, maxTS+1)
	if err != nil {
		t.Fatalf("k=%d torn=%v: GetDiff after recovery: %v", k, torn, err)
	}
	if m := len(rec); m < durable || m > attempted {
		t.Fatalf("k=%d torn=%v: recovered %d updates, want between %d and %d",
			k, torn, m, durable, attempted)
	}
	for i, u := range rec {
		if string(cmp.Encode(t, us[i])) != string(cmp.Encode(t, u)) {
			t.Fatalf("k=%d torn=%v: recovered update %d = %v, want %v", k, torn, i, u, us[i])
		}
	}

	// A clean store fed the recovered prefix, fulls only, is the oracle.
	mono := tstest.OpenStore(t, timestore.Options{SnapshotEveryOps: 1 << 30})
	if len(rec) > 0 {
		if err := mono.AppendBatch(rec); err != nil {
			t.Fatalf("k=%d torn=%v: oracle append: %v", k, torn, err)
		}
	}
	if lp, lm := chain.LatestTimestamp(), mono.LatestTimestamp(); lp != lm {
		t.Fatalf("k=%d torn=%v: latest ts %d vs oracle %d", k, torn, lp, lm)
	}
	for ts := model.Timestamp(0); ts <= maxTS; ts += maxTS/5 + 1 {
		tstest.AssertSameGraph(t, cmp, mono, chain, ts)
	}
	tstest.AssertSameGraph(t, cmp, mono, chain, maxTS)
	if err := mono.Close(); err != nil {
		t.Fatalf("k=%d torn=%v: oracle close: %v", k, torn, err)
	}
	if err := chain.Close(); err != nil {
		t.Fatalf("k=%d torn=%v: close recovered store: %v", k, torn, err)
	}
}

// TestConcurrentReadersDuringSeal runs graph and diff readers against the
// store while the writer drives it across many policy snapshots, each a full
// or a delta the worker writes and catalogues beside the readers. Run under
// -race this checks the chain's leaf lock; the count assertions check readers
// never observe a half-catalogued chain (lost or duplicated updates at any
// watermark).
func TestConcurrentReadersDuringSeal(t *testing.T) {
	const total = 400
	st := tstest.OpenStore(t, timestore.Options{
		SnapshotEveryOps: 25,
		DeltaChainLength: 1,
	})

	var watermark atomic.Int64 // highest acked timestamp
	var done atomic.Bool
	errCh := make(chan error, 8)
	var wg sync.WaitGroup

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				w := watermark.Load()
				if w < 1 {
					continue
				}
				ts := model.Timestamp(1 + rng.Int63n(w))
				// One node per timestamp: the graph at ts has exactly ts nodes.
				g, err := st.GetGraphContext(context.Background(), ts)
				if err != nil {
					errCh <- err
					return
				}
				if int64(g.NodeCount()) != int64(ts) {
					errCh <- errCount{"GetGraph", int64(ts), int64(g.NodeCount()), int64(ts)}
					return
				}
				us, err := st.GetDiffContext(context.Background(), 1, ts+1)
				if err != nil {
					errCh <- err
					return
				}
				if int64(len(us)) != int64(ts) {
					errCh <- errCount{"GetDiff", int64(ts), int64(len(us)), int64(ts)}
					return
				}
			}
		}(int64(1000 + r))
	}

	for i := 1; i <= total; i++ {
		u := model.AddNode(model.Timestamp(i), model.NodeID(i), []string{"N"},
			model.Properties{"n": model.IntValue(int64(i))})
		if err := st.AppendBatch([]model.Update{u}); err != nil {
			t.Fatal(err)
		}
		if i%16 == 0 {
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		watermark.Store(int64(i))
	}
	done.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st.WaitSnapshots()
	if got := st.Stats().Snapshots; got < 10 {
		t.Fatalf("writer's policy took %d snapshots, want >= 10 for meaningful contention", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

type errCount struct {
	op            string
	ts, got, want int64
}

func (e errCount) Error() string {
	return fmt.Sprintf("%s at watermark ts %d: got %d, want %d", e.op, e.ts, e.got, e.want)
}
