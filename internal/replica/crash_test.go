package replica

// Replica crash sweeps, in the style of the system-level crash harness: a
// deterministic workload replicates from a primary to a follower over the
// pure shipment path (Source.Shipment → Applier.Apply) while a FaultFS
// fails every mutating-operation index k = 1..N, in plain fail-stop and
// torn-fsync modes, on either side of the stream. After every crash the
// crashed side reopens, the stream resumes from the follower's durable
// extents, and the sweep asserts the replication contract:
//
//   - no acked commit is ever lost: every timestamp the primary acked is at
//     or below the follower's final watermark;
//   - the follower never serves an unreplicated timestamp: its watermark
//     never exceeds the primary's clock, and a recovered watermark never
//     regresses below the last one acked to the stream;
//   - convergence is byte-identical: the follower's transaction log and
//     string table equal the primary's, and its temporal store holds the
//     identical update history.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"aion/internal/aion"
	"aion/internal/enc"
	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/system"
	"aion/internal/testkit/vfstest"
	"aion/internal/vfs"
)

// openSys is openNode without the fatal error handling, for sweep cases
// where the injected fault may kill Open itself.
func openSys(fs vfs.FS, dir string, asReplica bool) (*system.System, error) {
	return system.Open(system.Options{
		Dir: dir, SyncCommits: true, Replica: asReplica, FS: fs,
		Aion: aion.Options{SnapshotEveryOps: 1 << 30},
	})
}

// commitOne commits the i-th workload transaction: a new node with a
// per-transaction label (so the string table keeps growing and the strings
// stream stays live through the whole sweep), a link to its predecessor,
// and a property bump on an earlier node.
func commitOne(s *system.System, i int) (model.Timestamp, error) {
	id := model.NodeID(i + 1)
	return s.Host.Run(func(tx *hostdb.Tx) error {
		labels := []string{"P", fmt.Sprintf("L%d", i)}
		if err := tx.CreateNodeWithID(id, labels, model.Properties{"i": model.IntValue(int64(i))}); err != nil {
			return err
		}
		if i > 0 {
			if err := tx.CreateRelWithID(model.RelID(i), id-1, id, "NEXT",
				model.Properties{"w": model.IntValue(int64(i))}); err != nil {
				return err
			}
			return tx.SetNodeProps(model.NodeID(i),
				model.Properties{fmt.Sprintf("k%d", i%5): model.IntValue(int64(i))}, nil)
		}
		return nil
	})
}

// verifyConverged asserts the follower is an exact copy of the primary:
// same watermark and clock, same graph counts, byte-identical log and
// string table, and an identical temporal update history.
func verifyConverged(t *testing.T, tag string, p *system.System, pfs vfs.FS, pdir string,
	f *system.System, ffs vfs.FS, fdir string, app *Applier) {
	t.Helper()
	if wm, pc := app.Watermark(), p.Host.Clock(); wm != pc {
		t.Fatalf("%s: watermark %d, primary clock %d", tag, wm, pc)
	}
	pn, pr := p.Host.Counts()
	fn, fr := f.Host.Counts()
	if pn != fn || pr != fr {
		t.Fatalf("%s: follower %d nodes/%d rels, primary %d/%d", tag, fn, fr, pn, pr)
	}
	for _, name := range []string{"neostore.transaction.db", "host-strings.db"} {
		pb := readFile(t, pfs, pdir+"/"+name)
		fb := readFile(t, ffs, fdir+"/"+name)
		if !bytes.Equal(pb, fb) {
			t.Fatalf("%s: %s differs (primary %d bytes, follower %d)", tag, name, len(pb), len(fb))
		}
	}
	if err := p.Aion.WaitSync(); err != nil {
		t.Fatalf("%s: primary aion: %v", tag, err)
	}
	if err := f.Aion.WaitSync(); err != nil {
		t.Fatalf("%s: follower aion: %v", tag, err)
	}
	clock := p.Host.Clock()
	pu, err := p.Aion.TimeStore().GetDiffContext(context.Background(), 0, clock+1)
	if err != nil {
		t.Fatalf("%s: primary GetDiff: %v", tag, err)
	}
	fu, err := f.Aion.TimeStore().GetDiffContext(context.Background(), 0, clock+1)
	if err != nil {
		t.Fatalf("%s: follower GetDiff: %v", tag, err)
	}
	if len(pu) != len(fu) {
		t.Fatalf("%s: follower temporal store has %d updates, primary %d", tag, len(fu), len(pu))
	}
	codec := enc.NewCodec(strstore.NewMem())
	for i := range pu {
		a, err := codec.AppendUpdate(nil, pu[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := codec.AppendUpdate(nil, fu[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: temporal update %d = %v, want %v", tag, i, fu[i], pu[i])
		}
	}
}

// runFollowerCrashCase crashes the follower at fault index k while it
// applies the stream from a long-lived, read-only primary, then reopens it
// and resumes to convergence.
func runFollowerCrashCase(t *testing.T, p *system.System, pfs vfs.FS, src *Source, k int, torn bool) {
	t.Helper()
	tag := fmt.Sprintf("k=%d torn=%v", k, torn)
	ffs := vfstest.NewFaultFS()
	ffs.SetTornSync(torn)
	ffs.SetFailAfter(int64(k))
	var preWM model.Timestamp // highest watermark acked by a successful Apply
	f, err := openSys(ffs, "follower", true)
	if err == nil {
		app := NewApplier(f)
		for {
			so, to := app.Offsets()
			sh, serr := src.Shipment(so, to, 64)
			if serr != nil {
				t.Fatalf("%s: shipment from healthy primary: %v", tag, serr)
			}
			if sh.Empty() {
				break
			}
			if app.Apply(sh) != nil {
				break // the injected fault hit mid-apply: crash now
			}
			preWM = app.Watermark()
		}
		ffs.Crash() // power cut FIRST: nothing Close still flushes may count
		_ = f.Close()
	} else {
		ffs.Crash()
	}

	f2, err := openSys(ffs, "follower", true)
	if err != nil {
		t.Fatalf("%s: follower reopen after crash: %v", tag, err)
	}
	app2 := NewApplier(f2)
	// Durability before visibility: every Apply that returned acked a
	// watermark backed by fsynced bytes, so recovery never regresses it —
	// and never invents commits the primary does not have.
	if wm := app2.Watermark(); wm < preWM {
		t.Fatalf("%s: recovered watermark %d below acked %d", tag, wm, preWM)
	} else if wm > p.Host.Clock() {
		t.Fatalf("%s: recovered watermark %d above primary clock %d", tag, wm, p.Host.Clock())
	}
	if err := pump(src, app2, 1<<20); err != nil {
		t.Fatalf("%s: resume after crash: %v", tag, err)
	}
	verifyConverged(t, tag, p, pfs, "primary", f2, ffs, "follower", app2)
	if err := f2.Close(); err != nil {
		t.Fatalf("%s: clean close after recovery: %v", tag, err)
	}
}

// TestCrashSweepFollower sweeps every follower-side fault index in both
// plain and torn-fsync modes against one long-lived primary.
func TestCrashSweepFollower(t *testing.T) {
	const txns = 18
	pfs := vfstest.NewFaultFS()
	p := openNode(t, pfs, "primary", false)
	defer p.Close()
	for i := 0; i < txns; i++ {
		if _, err := commitOne(p, i); err != nil {
			t.Fatal(err)
		}
	}
	src := NewSource(p)

	// Fault-free run measures the follower's mutating-op count N.
	ffs := vfstest.NewFaultFS()
	f, err := openSys(ffs, "follower", true)
	if err != nil {
		t.Fatal(err)
	}
	app := NewApplier(f)
	if err := pump(src, app, 64); err != nil {
		t.Fatal(err)
	}
	verifyConverged(t, "fault-free", p, pfs, "primary", f, ffs, "follower", app)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	n := int(ffs.Ops())
	t.Logf("sweeping %d follower fault indexes × 2 modes over %d transactions", n, txns)
	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			runFollowerCrashCase(t, p, pfs, src, k, torn)
		}
	}
}

// runPrimaryCrashCase crashes the primary at fault index k while a healthy
// follower tails it mid-stream, then reopens the primary and resumes the
// stream from the follower's durable extents.
func runPrimaryCrashCase(t *testing.T, txns, k int, torn bool) {
	t.Helper()
	tag := fmt.Sprintf("k=%d torn=%v", k, torn)
	pfs := vfstest.NewFaultFS()
	pfs.SetTornSync(torn)
	pfs.SetFailAfter(int64(k))
	ffs := vfstest.NewFaultFS()
	f, err := openSys(ffs, "follower", true)
	if err != nil {
		t.Fatalf("%s: follower open: %v", tag, err)
	}
	defer f.Close()
	app := NewApplier(f)

	var acked []model.Timestamp
	p, err := openSys(pfs, "primary", false)
	if err == nil {
		src := NewSource(p)
		for i := 0; i < txns; i++ {
			ts, cerr := commitOne(p, i)
			if cerr != nil {
				break // the injected fault hit this commit: it was never acked
			}
			acked = append(acked, ts)
			// Partial catch-up keeps the follower mid-stream at crash time.
			so, to := app.Offsets()
			sh, serr := src.Shipment(so, to, 64)
			if serr != nil {
				t.Fatalf("%s: shipment: %v", tag, serr)
			}
			if !sh.Empty() {
				if aerr := app.Apply(sh); aerr != nil {
					t.Fatalf("%s: apply on healthy follower: %v", tag, aerr)
				}
			}
		}
		pfs.Crash()
		_ = p.Close()
	} else {
		pfs.Crash()
	}

	p2, err := openSys(pfs, "primary", false)
	if err != nil {
		t.Fatalf("%s: primary reopen after crash: %v", tag, err)
	}
	defer p2.Close()
	// The follower only ever applied the primary's durable bytes, so the
	// recovered primary must cover everything the follower holds…
	if wm, pc := app.Watermark(), p2.Host.Clock(); wm > pc {
		t.Fatalf("%s: follower watermark %d ahead of recovered primary clock %d", tag, wm, pc)
	}
	// …and acked commits were durable on the primary by definition.
	for _, ts := range acked {
		if ts > p2.Host.Clock() {
			t.Fatalf("%s: acked commit %d lost by primary recovery (clock %d)", tag, ts, p2.Host.Clock())
		}
	}
	src2 := NewSource(p2)
	if err := pump(src2, app, 1<<20); err != nil {
		t.Fatalf("%s: resume from recovered primary: %v", tag, err)
	}
	for _, ts := range acked {
		if ts > app.Watermark() {
			t.Fatalf("%s: acked commit %d missing from follower (watermark %d)", tag, ts, app.Watermark())
		}
	}
	verifyConverged(t, tag, p2, pfs, "primary", f, ffs, "follower", app)
}

// TestCrashSweepPrimary sweeps every primary-side fault index in both
// plain and torn-fsync modes, with a follower tailing mid-stream.
func TestCrashSweepPrimary(t *testing.T) {
	const txns = 14
	// Fault-free run measures the primary's mutating-op count N.
	pfs := vfstest.NewFaultFS()
	p, err := openSys(pfs, "primary", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < txns; i++ {
		if _, err := commitOne(p, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	n := int(pfs.Ops())
	t.Logf("sweeping %d primary fault indexes × 2 modes over %d transactions", n, txns)
	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			runPrimaryCrashCase(t, txns, k, torn)
		}
	}
}
