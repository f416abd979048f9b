package timestore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/strstore"
)

// propUpdates builds a richer workload than chainUpdates: labeled nodes with
// string and int properties plus rels, so snapshot records exercise the full
// codec (string interning, property maps) through the frame files.
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
// file-name order.
func snapshotFiles(t testing.TB, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "p-1", "*.dsnap"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// TestLoadRoundTrip checks that a multi-frame full is read back as the graph
// it was written from: counts, labels, properties and the timestamp.
func TestLoadRoundTrip(t *testing.T) {
	const n = 300
	us := propUpdates(n)
	s := openStore(t, Options{SnapshotEveryOps: 1 << 30})
	if err := s.AppendBatch(us); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateSnapshot(); err != nil {
		t.Fatal(err)
	}
	g, err := s.loadElem(context.Background(), s.seg.elems(), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != n || g.RelCount() != n-1 {
		t.Fatalf("%d nodes / %d rels, want %d / %d", g.NodeCount(), g.RelCount(), n, n-1)
	}
	nd := g.Node(model.NodeID(42))
	if nd == nil || nd.Props["name"].Str() != "node-42" || nd.Props["rank"].Int() != 42 {
		t.Fatalf("node 42 decoded as %+v", nd)
	}
	if lastTS := us[len(us)-1].TS; g.Timestamp() != lastTS {
		t.Fatalf("timestamp %d, want %d", g.Timestamp(), lastTS)
	}
}

// TestCancelStopsReplayWithinAStride cancels a read's ctx mid-replay and
// counts the records replay decodes after it: GetGraphContext and
// ScanDiffContext fail with the ctx's error having decoded at most
// replayStride records and one frame past the cancel, and a full loaded under
// an already-cancelled ctx applies no frame.
func TestCancelStopsReplayWithinAStride(t *testing.T) {
	const frame = 7 // records per log frame: one timestamp's run
	var us []model.Update
	for i := 0; i < 4000; i++ {
		us = append(us, model.AddNode(model.Timestamp(1+i/frame), model.NodeID(i), []string{"N"}, nil))
	}
	s := openStore(t, Options{SnapshotEveryOps: 1 << 30})
	if err := s.AppendBatch(us); err != nil {
		t.Fatal(err)
	}
	defer func() { replayDecoded = nil }()
	last := us[len(us)-1].TS
	for name, read := range map[string]func(ctx context.Context) error{
		"GetGraphContext": func(ctx context.Context) error {
			_, err := s.GetGraphContext(ctx, last-1)
			return err
		},
		"ScanDiffContext": func(ctx context.Context) error {
			return s.ScanDiffContext(ctx, 0, last, func(model.Update) bool { return true })
		},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		decoded, atCancel := 0, -1
		replayDecoded = func(n int) {
			if decoded += n; atCancel < 0 && decoded >= 1000 {
				cancel()
				atCancel = decoded
			}
		}
		err := read(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s after a cancel returned %v", name, err)
		}
		if atCancel < 0 {
			t.Fatalf("%s decoded %d records, never reaching the cancel", name, decoded)
		}
		if past := decoded - atCancel; past > replayStride+frame {
			t.Errorf("%s decoded %d records past the cancel, want at most %d", name, past, replayStride+frame)
		}
	}

	if err := s.CreateSnapshot(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := memgraph.New()
	if err := s.applyChainFile(ctx, s.seg.elems(), 0, g, nil, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("loading a full under a cancelled ctx returned %v", err)
	}
	if g.NodeCount() != 0 {
		t.Errorf("loading a full under a cancelled ctx applied %d nodes", g.NodeCount())
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
	s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 10})
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
	s := openStore(t, Options{Dir: dir, SnapshotEveryOps: 1 << 30})
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

// TestReopenRoundTrip reopens a populated store, so recovery loads the
// newest full and replays the log tail after it, and checks the graphs it
// answers at the end and halfway.
func TestReopenRoundTrip(t *testing.T) {
	ctx := context.Background()
	const n = 400
	dir := t.TempDir()
	us := propUpdates(n)
	// The codec (and its string table) outlives the store, as it does in a
	// real deployment where the string store is a persistent file.
	codec := enc.NewCodec(strstore.NewMem())
	s, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 150})
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
	r, err := Open(codec, Options{Dir: dir, SnapshotEveryOps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g, err := r.GetGraphContext(ctx, us[len(us)-1].TS)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != n || g.RelCount() != n-1 {
		t.Fatalf("%d nodes / %d rels, want %d / %d", g.NodeCount(), g.RelCount(), n, n-1)
	}
	mid, err := r.GetGraphContext(ctx, model.Timestamp(n/2))
	if err != nil {
		t.Fatal(err)
	}
	if mid.NodeCount() != n/2 {
		t.Fatalf("mid graph %d nodes, want %d", mid.NodeCount(), n/2)
	}
}

// TestConcurrentReadWriteStress runs a writer appending updates against
// readers hammering GetGraph, GetGraphs, and GetDiff, run under -race in
// the Makefile's race target.
func TestConcurrentReadWriteStress(t *testing.T) {
	ctx := context.Background()
	const n = 1500
	s := openStore(t, Options{SnapshotEveryOps: 200})
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
					g, err := s.GetGraphContext(ctx, ts)
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
					if _, err := getGraphs(ctx, s, 0, ts, step); err != nil {
						t.Errorf("GetGraphs(0,%d,%d): %v", ts, step, err)
						return
					}
				default:
					if _, err := s.GetDiffContext(context.Background(), ts/2, ts); err != nil {
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
	g, err := s.GetGraphContext(ctx, us[len(us)-1].TS)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != n || g.RelCount() != n-1 {
		t.Fatalf("final graph %d nodes / %d rels, want %d / %d",
			g.NodeCount(), g.RelCount(), n, n-1)
	}
}
