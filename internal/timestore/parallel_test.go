package timestore

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
)

// propUpdates builds a richer workload than chainUpdates: labeled nodes with
// string and int properties plus rels, so snapshot records exercise the full
// codec (string interning, property maps) through the pipeline.
func propUpdates(n int) []model.Update {
	var us []model.Update
	ts := model.Timestamp(1)
	for i := 0; i < n; i++ {
		us = append(us, model.AddNode(ts, model.NodeID(i),
			[]string{"Person", fmt.Sprintf("Group%d", i%7)},
			model.Properties{
				"name": model.StringValue(fmt.Sprintf("node-%d", i)),
				"rank": model.IntValue(int64(i % 100)),
			}))
		ts++
	}
	for i := 0; i < n-1; i++ {
		us = append(us, model.AddRel(ts, model.RelID(i), model.NodeID(i), model.NodeID(i+1),
			"KNOWS", model.Properties{"w": model.IntValue(int64(i))}))
		ts++
	}
	return us
}

// snapshotFiles lists every element file under the store directory dir, in
// segment then position order.
func snapshotFiles(t testing.TB, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "p-*", "*.dsnap"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// TestParallelSnapshotBytesIdentical is the worker-count property test: the
// same update sequence persisted with 1 (inline), 2, 4 and 8 pipeline
// workers must produce byte-identical files — the active segment's snapshot
// and every full-/delta- element of a sealed segment's chain alike
// (workers reorder work, never bytes).
func TestParallelSnapshotBytesIdentical(t *testing.T) {
	us := propUpdates(500)
	// write returns name -> bytes of every persisted materialization.
	write := func(par int) map[string][]byte {
		out := map[string][]byte{}
		collect := func(store, dir string) {
			for _, f := range snapshotFiles(t, dir) {
				b, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if len(b) == 0 {
					t.Fatalf("ParallelIO=%d wrote an empty %s", par, filepath.Base(f))
				}
				out[store+filepath.Base(f)] = b
			}
		}
		dir := t.TempDir()
		s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 1 << 30, ParallelIO: par})
		if err := s.AppendBatch(us); err != nil {
			t.Fatal(err)
		}
		if err := s.CreateSnapshot(); err != nil {
			t.Fatal(err)
		}
		collect("active/", dir)
		if len(out) != 1 {
			t.Fatalf("ParallelIO=%d produced %d snapshot files, want 1", par, len(out))
		}

		// Chain files: one sealed segment whose mid-chain and end fulls
		// span several pipeline batches (> frameBatchRecords records).
		pdir := t.TempDir()
		p := openStore(t, Options{Dir: pdir, SnapshotEveryOps: 1 << 30,
			PartitionEvery: 900, DeltaChainLength: 1, ParallelIO: par})
		for _, u := range us {
			if err := p.Append(u); err != nil {
				t.Fatal(err)
			}
		}
		if st := p.Stats(); st.SealedPartitions != 1 || st.DeltaSnapshots == 0 || st.CompactErrors != 0 {
			t.Fatalf("ParallelIO=%d: %d sealed, %d deltas, %d compaction errors (%s)", par,
				st.SealedPartitions, st.DeltaSnapshots, st.CompactErrors, st.LastCompactError)
		}
		collect("sealed/", pdir)
		return out
	}
	inline := write(1)
	for _, par := range []int{2, 4, 8} {
		got := write(par)
		if len(got) != len(inline) {
			t.Fatalf("ParallelIO=%d wrote %d files, inline wrote %d", par, len(got), len(inline))
		}
		for name, want := range inline {
			if !bytes.Equal(got[name], want) {
				t.Errorf("ParallelIO=%d: %s differs from the inline pipeline's (%d vs %d bytes)",
					par, name, len(got[name]), len(want))
			}
		}
	}
}

// TestParallelLoadRoundTrip checks that a snapshot written at one worker
// count is read back identically at another (inline and concurrent, both
// ways): counts, labels, and properties survive the 3-stage pipeline.
func TestParallelLoadRoundTrip(t *testing.T) {
	const n = 300
	us := propUpdates(n)
	for _, par := range []int{1, 4} {
		dir := t.TempDir()
		s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 1 << 30, ParallelIO: par})
		if err := s.AppendBatch(us); err != nil {
			t.Fatal(err)
		}
		if err := s.CreateSnapshot(); err != nil {
			t.Fatal(err)
		}
		chain := s.active().elems()
		lastTS := us[len(us)-1].TS
		for _, loadPar := range []int{1, 4} {
			s.opts.ParallelIO = loadPar
			g, err := s.loadElem(context.Background(), s.active(), chain, 0, nil, nil)
			if err != nil {
				t.Fatalf("write par=%d load par=%d: %v", par, loadPar, err)
			}
			if g.NodeCount() != n || g.RelCount() != n-1 {
				t.Fatalf("load par=%d: %d nodes / %d rels, want %d / %d",
					loadPar, g.NodeCount(), g.RelCount(), n, n-1)
			}
			nd := g.Node(model.NodeID(42))
			if nd == nil || nd.Props["name"].Str() != "node-42" || nd.Props["rank"].Int() != 42 {
				t.Fatalf("load par=%d: node 42 decoded as %+v", loadPar, nd)
			}
			if g.Timestamp() != lastTS {
				t.Fatalf("load par=%d: timestamp %d, want %d", loadPar, g.Timestamp(), lastTS)
			}
		}
		s.opts.ParallelIO = par
	}
}

// TestSnapshotWriteErrorSurfaced injects a persist failure (a directory
// squatting on every candidate snapshot path, so os.Create fails even when
// running as root) and checks the failure is counted and surfaced through
// Stats rather than dropped — satellite (c).
func TestSnapshotWriteErrorSurfaced(t *testing.T) {
	us := chainUpdates(30)
	dir := t.TempDir()
	// Block every snapshot path any policy trigger could pick.
	for ts := model.Timestamp(0); ts <= us[len(us)-1].TS; ts++ {
		p := filepath.Join(dir, "p-1", chainFileName(enc.DeltaFull, position{ts: ts}))
		if err := os.MkdirAll(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 10, ParallelIO: 2})
	if err := s.AppendBatch(us); err != nil {
		t.Fatal(err)
	}
	s.WaitSnapshots()
	// Background failures must be visible; the eager path must also report.
	if err := s.CreateSnapshot(); err == nil {
		t.Fatal("CreateSnapshot into a blocked path must fail")
	}
	st := s.Stats()
	if st.SnapshotErrors == 0 {
		t.Fatal("Stats().SnapshotErrors = 0 after injected write failures")
	}
	if st.LastSnapshotError == "" {
		t.Fatal("Stats().LastSnapshotError empty after injected write failures")
	}
	if st.Snapshots != 0 || st.SnapshotBytes != 0 {
		t.Errorf("failed persists must not count: %d snapshots, %d bytes",
			st.Snapshots, st.SnapshotBytes)
	}
}

// TestStatsSnapshotBytesTracked checks the running footprint counter against
// the actual on-disk files, including the overwrite case (re-snapshot at the
// same timestamp must not double-count) — satellite (b).
func TestStatsSnapshotBytesTracked(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 1 << 30, ParallelIO: 2})
	if err := s.AppendBatch(chainUpdates(100)); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateSnapshot(); err != nil { // same ts: overwrite, not add
		t.Fatal(err)
	}
	var disk int64
	for _, f := range snapshotFiles(t, dir) {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		disk += st.Size()
	}
	if got := s.Stats().SnapshotBytes; got != disk {
		t.Fatalf("Stats().SnapshotBytes = %d, on-disk = %d", got, disk)
	}
}

// TestRecoverParallel reopens a populated store with ParallelIO=4 so
// recovery runs the snapshot load and the log-tail replay on concurrent
// workers, and checks the rebuilt state matches an inline (ParallelIO=1)
// reopen.
func TestRecoverParallel(t *testing.T) {
	const n = 400
	dir := t.TempDir()
	us := propUpdates(n)
	// The codec (and its string table) outlives the store, as it does in a
	// real deployment where the string store is a persistent file.
	codec := enc.NewCodec(strstore.NewMem())
	s, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 150, ParallelIO: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(us); err != nil {
		t.Fatal(err)
	}
	s.WaitSnapshots()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		r, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 1 << 30, ParallelIO: par})
		if err != nil {
			t.Fatalf("reopen par=%d: %v", par, err)
		}
		g, err := r.GetGraph(us[len(us)-1].TS)
		if err != nil {
			t.Fatalf("reopen par=%d: %v", par, err)
		}
		if g.NodeCount() != n || g.RelCount() != n-1 {
			t.Fatalf("reopen par=%d: %d nodes / %d rels, want %d / %d",
				par, g.NodeCount(), g.RelCount(), n, n-1)
		}
		mid, err := r.GetGraph(model.Timestamp(n / 2))
		if err != nil {
			t.Fatal(err)
		}
		if mid.NodeCount() != n/2 {
			t.Fatalf("reopen par=%d: mid graph %d nodes, want %d", par, mid.NodeCount(), n/2)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentReadWriteStress runs a writer appending updates against
// readers hammering GetGraph, GetGraphs, and GetDiff with the parallel
// pipelines enabled — satellite (d), run under -race in the Makefile's race
// target.
func TestConcurrentReadWriteStress(t *testing.T) {
	const n = 1500
	s := openStore(t, Options{SnapshotEveryOps: 200, ParallelIO: 4})
	us := propUpdates(n)
	var appended atomic.Int64 // highest ts visible to readers
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for _, u := range us {
			if err := s.Append(u); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			appended.Store(int64(u.TS))
		}
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				hi := appended.Load()
				if hi <= 0 {
					continue
				}
				ts := model.Timestamp(1 + (i*2654435761)%hi)
				i++
				switch i % 3 {
				case 0:
					g, err := s.GetGraph(ts)
					if err != nil {
						t.Errorf("GetGraph(%d): %v", ts, err)
						return
					}
					if int64(g.Timestamp()) != int64(ts) {
						t.Errorf("GetGraph(%d) returned ts %d", ts, g.Timestamp())
						return
					}
				case 1:
					step := model.Timestamp(1 + hi/8)
					if _, err := s.GetGraphs(0, ts, step); err != nil {
						t.Errorf("GetGraphs(0,%d,%d): %v", ts, step, err)
						return
					}
				default:
					if _, err := s.GetDiff(ts/2, ts); err != nil {
						t.Errorf("GetDiff(%d,%d): %v", ts/2, ts, err)
						return
					}
				}
			}
		}(int64(r + 1))
	}
	wg.Wait()
	s.WaitSnapshots()
	if st := s.Stats(); st.SnapshotErrors != 0 {
		t.Fatalf("stress run hit snapshot errors: %d (%s)", st.SnapshotErrors, st.LastSnapshotError)
	}
	g, err := s.GetGraph(us[len(us)-1].TS)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != n || g.RelCount() != n-1 {
		t.Fatalf("final graph %d nodes / %d rels, want %d / %d",
			g.NodeCount(), g.RelCount(), n, n-1)
	}
}
