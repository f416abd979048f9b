package tstest

// Cross-configuration equivalence: a partitioned store (sealed segments +
// delta chains) and a monolithic store (one log + full snapshots) driven
// through the identical workload must be observationally indistinguishable
// — byte-identical GetGraph, GetDiff, and ScanGraphs at every commit
// timestamp, before and after reopen, after a crash at every fault index,
// and under concurrent readers while seals are in flight.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/timestore"
)

// monoOpts is the reference configuration: one log and full snapshots only.
func monoOpts() timestore.Options {
	return timestore.Options{SnapshotEveryOps: 50, DeltaChainLength: -1}
}

func partOpts() timestore.Options {
	return timestore.Options{SnapshotEveryOps: 35, PartitionEvery: 80, DeltaChainLength: 2}
}

// TestEquivalenceAcrossSeals is the core harness run: 600 updates cross
// several seal boundaries in the partitioned store, and every commit
// timestamp is compared across configurations.
func TestEquivalenceAcrossSeals(t *testing.T) {
	us := GenWorkload(7, 600)
	maxTS := us[len(us)-1].TS
	cmp := NewComparator()

	mono := OpenStore(t, monoOpts())
	part := OpenStore(t, partOpts())
	Drive(t, mono, us, 20)
	Drive(t, part, us, 20)

	bounds := part.SealedBounds()
	if len(bounds) < 3 {
		t.Fatalf("partitioned store sealed %d partitions, want >= 3", len(bounds))
	}
	if st := part.Stats(); st.SealedPartitions != len(bounds) || st.DeltaSnapshots == 0 {
		t.Fatalf("stats report %d sealed / %d deltas, want %d sealed and deltas > 0",
			st.SealedPartitions, st.DeltaSnapshots, len(bounds))
	}

	// Every commit timestamp, including 0 (before history) and boundaries.
	for ts := model.Timestamp(0); ts <= maxTS; ts++ {
		AssertSameGraph(t, cmp, mono, part, ts)
	}
	// Diff windows: the full history, plus windows straddling every seal
	// boundary, plus seeded random windows.
	AssertSameDiff(t, cmp, mono, part, 0, maxTS+1)
	for _, b := range bounds {
		AssertSameDiff(t, cmp, mono, part, b-3, b+4)
		AssertSameDiff(t, cmp, mono, part, b, b+1)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 25; i++ {
		a := model.Timestamp(rng.Int63n(int64(maxTS)))
		b := a + 1 + model.Timestamp(rng.Int63n(int64(maxTS-a)+1))
		AssertSameDiff(t, cmp, mono, part, a, b)
	}
	// Snapshot series across the whole history and dense across two seals.
	AssertSameScan(t, cmp, mono, part, 1, maxTS+1, 7)
	AssertSameScan(t, cmp, mono, part, bounds[0]-2, bounds[1]+3, 1)

	if err := mono.Close(); err != nil {
		t.Fatal(err)
	}
	if err := part.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalenceColdReopen reopens the partitioned store (recovery path:
// partitions re-derived from directory state) and re-verifies equivalence
// against a monolithic reference, then asserts the bounded-replay
// contract: a graph query landing in an old partition replays only that
// partition's chain, not the history before it.
func TestEquivalenceColdReopen(t *testing.T) {
	us := GenWorkload(21, 600)
	maxTS := us[len(us)-1].TS
	cmp := NewComparator()

	mono := OpenStore(t, monoOpts())
	part := OpenStore(t, partOpts())
	Drive(t, mono, us, 20)
	Drive(t, part, us, 20)
	if err := part.Close(); err != nil {
		t.Fatal(err)
	}
	part = part.Reopen(t)

	bounds := part.SealedBounds()
	if len(bounds) < 4 {
		t.Fatalf("reopened store reports %d sealed partitions, want >= 4", len(bounds))
	}
	for ts := model.Timestamp(0); ts <= maxTS; ts += 3 {
		AssertSameGraph(t, cmp, mono, part, ts)
	}
	AssertSameGraph(t, cmp, mono, part, maxTS)
	AssertSameDiff(t, cmp, mono, part, 0, maxTS+1)

	// Bounded replay: query the middle of the fourth partition. At least
	// three partitions of history precede it, so a from-genesis replay
	// would apply >= 3*PartitionEvery updates; the partition-local chain
	// bounds it by roughly one partition's worth.
	every := part.Opts.PartitionEvery
	ts := bounds[2] + (bounds[3]-bounds[2])/2
	naive := 0
	for _, u := range us {
		if u.TS <= ts {
			naive++
		}
	}
	if naive < 3*every {
		t.Fatalf("query ts %d has only %d preceding updates, want >= %d for a meaningful bound",
			ts, naive, 3*every)
	}
	base := part.Stats().ReplayedUpdates
	if _, err := part.GetGraph(ts); err != nil {
		t.Fatal(err)
	}
	replayed := int(part.Stats().ReplayedUpdates - base)
	// Upper bound only: the graphstore may already hold a nearby base, in
	// which case replay is even shorter. What must never happen is a
	// replay proportional to the full preceding history.
	if limit := 2 * every; replayed > limit {
		t.Fatalf("GetGraph(%d) replayed %d updates, want <= %d (naive replay: %d)",
			ts, replayed, limit, naive)
	}

	if err := mono.Close(); err != nil {
		t.Fatal(err)
	}
	if err := part.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalenceActiveDeltaChain is the differential test of the active
// chain's deltas: one seeded history through a store that never seals and
// writes two deltas between fulls, and through its fulls-only twin. GetGraph
// at every commit timestamp equals a replay from zero in both — with the
// cache warm (ascending, so most misses find their neighbour cached) and
// after a reopen with a one-entry cache (descending, so every element loads
// from its files) — GetDiff is identical, and a reopen recovers the same
// latest graph whether the store rebuilds it from its newest element and the
// log tail or is handed the host's.
func TestEquivalenceActiveDeltaChain(t *testing.T) {
	us := GenWorkload(33, 900)
	maxTS := us[len(us)-1].TS
	cmp := NewComparator()
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
	deltas := OpenStore(t, timestore.Options{SnapshotEveryOps: 30, DeltaChainLength: 2})
	fulls := OpenStore(t, timestore.Options{SnapshotEveryOps: 30, DeltaChainLength: -1})
	Drive(t, deltas, us, 20)
	Drive(t, fulls, us, 20)
	ds, fs := deltas.Stats(), fulls.Stats()
	if ds.DeltaSnapshots == 0 || ds.SnapshotErrors != 0 || ds.SealedPartitions != 0 {
		t.Fatalf("delta store: %d deltas, %d snapshot errors (%s), %d sealed", ds.DeltaSnapshots, ds.SnapshotErrors, ds.LastSnapshotError, ds.SealedPartitions)
	}
	if fs.DeltaSnapshots != 0 || fs.SnapshotErrors != 0 || ds.SnapshotBytes >= fs.SnapshotBytes {
		t.Fatalf("fulls-only twin: %d deltas, %d snapshot errors; chains of %d bytes (deltas) and %d (fulls)", fs.DeltaSnapshots, fs.SnapshotErrors, ds.SnapshotBytes, fs.SnapshotBytes)
	}
	check := func(label string, st *Store, ts model.Timestamp) {
		t.Helper()
		g, err := st.GetGraph(ts)
		if err != nil {
			t.Fatalf("%s: %s GetGraph(%d): %v", label, st.name(), ts, err)
		}
		if ts > 0 && cmp.GraphDigest(t, g) != want[ts] {
			t.Fatalf("%s: %s GetGraph(%d) differs from a replay from zero", label, st.name(), ts)
		}
	}
	for ts := model.Timestamp(0); ts <= maxTS; ts++ {
		check("warm", deltas, ts)
		check("warm", fulls, ts)
	}
	AssertSameDiff(t, cmp, deltas, fulls, 0, maxTS+1)
	AssertSameDiff(t, cmp, deltas, fulls, maxTS/3, 2*maxTS/3)
	AssertSameScan(t, cmp, deltas, fulls, 1, maxTS+1, 5)

	for _, st := range []*Store{deltas, fulls} {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st.Opts.GraphStoreBytes = 1 // the cache keeps its newest entry only
		cold := st.Reopen(t)
		if g, err := cold.Latest(); err != nil || cmp.GraphDigest(t, g) != want[maxTS] {
			t.Fatalf("%s: the latest graph recovered from the chain and the log tail differs from a replay from zero (%v)", st.name(), err)
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
			t.Fatalf("%s: reopened on a host, Latest took its graph %d times after loading %d entity versions (%v); want 1 and 0",
				st.name(), hst.LatestPulls, hst.LoadedEntities, err)
		}
		if cmp.GraphDigest(t, g) != want[maxTS] {
			t.Fatalf("%s: the latest graph taken from the host differs from a replay from zero", st.name())
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
func driveFaulty(st *Store, us []model.Update) (attempted, durable int) {
	for i, u := range us {
		if err := st.Append(u); err != nil {
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

// TestCrashEquivalenceSweep crashes the partitioned store at every
// mutating-operation fault index, reopens it, and checks the recovered
// state against a clean monolithic store fed the recovered prefix: the
// two must agree byte-for-byte on graphs and diffs. This catches recovery
// bugs that preserve a consistent-looking but wrong history.
func TestCrashEquivalenceSweep(t *testing.T) {
	us := GenWorkload(11, 120)
	maxTS := us[len(us)-1].TS
	sweepOpts := timestore.Options{SnapshotEveryOps: 1 << 30, PartitionEvery: 30, DeltaChainLength: 1, ParallelIO: 1}

	// Fault-free run measures the op count to sweep.
	probe := OpenStore(t, sweepOpts)
	if att, _ := driveFaulty(probe, us); att != len(us) {
		t.Fatalf("fault-free run stopped after %d/%d updates", att, len(us))
	}
	if len(probe.SealedBounds()) < 3 {
		t.Fatalf("sweep workload sealed %d partitions, want >= 3", len(probe.SealedBounds()))
	}
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	n := int(probe.FS.Ops())
	t.Logf("sweeping %d fault indexes × 2 modes with cross-store verification", n)

	cmp := NewComparator()
	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			runCrashEquivalenceCase(t, cmp, us, maxTS, sweepOpts, k, torn)
		}
	}
}

func runCrashEquivalenceCase(t *testing.T, cmp *Comparator, us []model.Update, maxTS model.Timestamp, opts timestore.Options, k int, torn bool) {
	t.Helper()
	part := OpenStore(t, opts)
	part.FS.SetTornSync(torn)
	part.FS.SetFailAfter(int64(k))
	attempted, durable := driveFaulty(part, us)
	_ = part.Close() // reaps the worker; errors expected on a failed FS
	part.FS.Crash()
	part = part.Reopen(t)

	rec, err := part.GetDiff(0, maxTS+1)
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

	// A clean monolithic store fed the recovered prefix is the oracle.
	mono := OpenStore(t, timestore.Options{SnapshotEveryOps: 1 << 30, ParallelIO: 1})
	if len(rec) > 0 {
		if err := mono.AppendBatch(rec); err != nil {
			t.Fatalf("k=%d torn=%v: oracle append: %v", k, torn, err)
		}
	}
	if lp, lm := part.LatestTimestamp(), mono.LatestTimestamp(); lp != lm {
		t.Fatalf("k=%d torn=%v: latest ts %d vs oracle %d", k, torn, lp, lm)
	}
	for ts := model.Timestamp(0); ts <= maxTS; ts += maxTS/5 + 1 {
		AssertSameGraph(t, cmp, mono, part, ts)
	}
	AssertSameGraph(t, cmp, mono, part, maxTS)
	if err := mono.Close(); err != nil {
		t.Fatalf("k=%d torn=%v: oracle close: %v", k, torn, err)
	}
	if err := part.Close(); err != nil {
		t.Fatalf("k=%d torn=%v: close recovered store: %v", k, torn, err)
	}
}

// TestConcurrentReadersDuringSeal runs graph and diff readers against the
// store while the writer drives it across many seal boundaries. Run under
// -race this checks the seal's reader-exclusion; the count assertions
// check readers never observe a half-sealed hybrid (lost or duplicated
// updates at any watermark).
func TestConcurrentReadersDuringSeal(t *testing.T) {
	const total = 400
	st := OpenStore(t, timestore.Options{
		SnapshotEveryOps: 60,
		PartitionEvery:   25,
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
				g, err := st.GetGraph(ts)
				if err != nil {
					errCh <- err
					return
				}
				if int64(g.NodeCount()) != int64(ts) {
					errCh <- errCount{"GetGraph", int64(ts), int64(g.NodeCount()), int64(ts)}
					return
				}
				us, err := st.GetDiff(1, ts+1)
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
		if err := st.Append(u); err != nil {
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

	if got := len(st.SealedBounds()); got < 10 {
		t.Fatalf("writer sealed %d partitions, want >= 10 for meaningful contention", got)
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
