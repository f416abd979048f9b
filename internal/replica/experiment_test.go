package replica

// Replica catch-up experiment (EXPERIMENTS.md): how fast a cold follower
// drains a primary's WAL as a function of the shipment size cap, and how
// the watermark lag closes over the catch-up. Run with:
//
//	AION_EXPERIMENT=1 go test ./internal/replica/ -run Experiment -v
import (
	"os"
	"testing"
	"time"

	"aion/internal/testkit/vfstest"
)

func TestReplicaCatchUpExperiment(t *testing.T) {
	if os.Getenv("AION_EXPERIMENT") == "" {
		t.Skip("set AION_EXPERIMENT=1 to run")
	}
	const txns = 2000
	pfs := vfstest.NewFaultFS()
	p := openNode(t, pfs, "primary", false)
	defer p.Close()
	start := time.Now()
	for i := 0; i < txns; i++ {
		if _, err := commitOne(p, i); err != nil {
			t.Fatal(err)
		}
	}
	buildDur := time.Since(start)
	_, txnBytes := p.Host.DurableExtents()
	t.Logf("primary: %d commits, %d WAL bytes, built in %v (%.0f commits/s)",
		txns, txnBytes, buildDur.Round(time.Millisecond), float64(txns)/buildDur.Seconds())

	for _, cap := range []int{4 << 10, 64 << 10, 1 << 20} {
		ffs := vfstest.NewFaultFS()
		f, err := openSys(ffs, "follower", true)
		if err != nil {
			t.Fatal(err)
		}
		src := NewSource(p)
		app := NewApplier(f)
		rounds := 0
		catchup := time.Now()
		var halfLag time.Duration
		for {
			so, to := app.Offsets()
			sh, err := src.Shipment(so, to, cap)
			if err != nil {
				t.Fatal(err)
			}
			if sh.Empty() {
				break
			}
			if err := app.Apply(sh); err != nil {
				t.Fatal(err)
			}
			rounds++
			if halfLag == 0 && app.Watermark() >= p.Host.Clock()/2 {
				halfLag = time.Since(catchup)
			}
		}
		dur := time.Since(catchup)
		st := app.Stats()
		t.Logf("cap %7d B: %4d rounds, %.1f MiB in %v (%.1f MiB/s, %.0f commits/s, half-lag closed in %v)",
			cap, rounds, float64(st.BytesApplied)/(1<<20),
			dur.Round(time.Millisecond), float64(st.BytesApplied)/(1<<20)/dur.Seconds(),
			float64(txns)/dur.Seconds(), halfLag.Round(time.Millisecond))
		if wm := app.Watermark(); wm != p.Host.Clock() {
			t.Fatalf("cap %d: watermark %d, want %d", cap, wm, p.Host.Clock())
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
