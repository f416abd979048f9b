// Package bench implements the benchmark harness that regenerates every
// table and figure of the paper's evaluation (Sec 6). Each experiment
// builds its workload with internal/datagen (scaled-down synthetic stand-ins
// for the Table 3 datasets), times every comparison with one measurement
// (measure: warmed, alternated, repeated, medians) and prints rows/series in
// the paper's shape. Absolute numbers differ from the paper's AWS testbed; the
// comparisons (who wins, by what factor, where the crossovers fall) are the
// reproduction target.
package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"time"

	"aion/internal/aion"
	"aion/internal/datagen"
	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/system"
)

// Config tunes the harness globally.
type Config struct {
	// Scale divides the Table 3 dataset sizes (default 1000: DBLP becomes
	// 300 nodes / 2100 rels; 100 gives 3k/21k).
	Scale int
	// Datasets restricts which Table 3 graphs run (default: first four,
	// matching the subsets most figures use).
	Datasets []string
	// Seed for dataset generation.
	Seed int64
	// PointOps is the number of point queries per system and run (paper: 1 M).
	PointOps int
	// GlobalOps is the number of snapshot retrievals per system and run
	// (paper: 100).
	GlobalOps int
	// Out receives the printed tables.
	Out io.Writer
	// Report, when non-nil, gathers every printed table for the -json output.
	Report *Report
}

// Defaults fills unset fields.
func (c *Config) Defaults() {
	if c.Scale <= 0 {
		c.Scale = 1000
	}
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"DBLP", "WikiTalk", "Pokec", "LiveJournal"}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.PointOps <= 0 {
		c.PointOps = 5000
	}
	if c.GlobalOps <= 0 {
		c.GlobalOps = 5
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
}

// genDataset builds one dataset with the harness seed.
func (c *Config) genDataset(name string, opts datagen.Options) *datagen.Dataset {
	spec := datagen.MustPreset(name, c.Scale)
	if opts.Seed == 0 {
		opts.Seed = c.Seed
	}
	return datagen.Generate(spec, opts)
}

// rounds is how many timed runs of each side measure takes.
const rounds = 5

// side is one system's, or one setting's, run of a measured operation. It
// returns how long the operation took: all of the call (timed), or the part a
// side with a set-up of its own timed itself.
type side func() (time.Duration, error)

// timed is the side that times all of fn.
func timed(fn func() error) side {
	return func() (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
}

// minWork is the least work a timed run of a repeated side rests on: on a
// 2-vCPU box Fig 12's 0.4–1.8 ms DBLP BFS runs flipped the figure's shape.
const minWork = 20 * time.Millisecond

// repeated is timed for work too short to time once: measure's untimed call
// fixes how many runs, minWork's worth, each later call times; it returns
// their mean.
func repeated(fn func() error) side {
	reps := 0
	return func() (time.Duration, error) {
		start, n := time.Now(), max(reps, 1)
		for range n {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		d := time.Since(start)
		reps = max(reps, int(minWork/max(d, 1))+1)
		return d / time.Duration(n), nil
	}
}

// measure is the harness's one measurement. It runs every side once untimed,
// to fill the caches, pools and lazily built state a run leaves behind, then
// rounds timed runs of each, the side that goes first rotating from round to
// round, and returns each side's median. So no side pays a cold start that the
// others do not, and none always runs right after another's.
func measure(sides ...side) ([]time.Duration, error) {
	runs := make([][]time.Duration, len(sides))
	for r := -1; r < rounds; r++ {
		for i := range sides {
			k := (max(r, 0) + i) % len(sides)
			d, err := sides[k]()
			if err != nil {
				return nil, err
			}
			if r >= 0 {
				runs[k] = append(runs[k], d)
			}
		}
	}
	med := make([]time.Duration, len(sides))
	for k, ds := range runs {
		slices.Sort(ds)
		med[k] = ds[len(ds)/2]
	}
	return med, nil
}

// loadAion opens a stand-alone Aion store in dir and loads ds into it, with
// a policy snapshot every eighth of the load; the cascade has drained and the
// snapshots are persisted before it returns, so no measurement races either.
func loadAion(dir string, ds *datagen.Dataset) (*aion.DB, error) {
	db, err := aion.Open(aion.Options{Dir: dir, SnapshotEveryOps: len(ds.Updates)/8 + 1})
	if err != nil {
		return nil, err
	}
	if err := errors.Join(db.ApplyBatch(ds.Updates), db.WaitSync()); err != nil {
		db.Close()
		return nil, err
	}
	db.TimeStore().WaitSnapshots()
	return db, nil
}

// loadHosted opens a host with Aion on it and replays ds through it (replay).
// It returns the system, its cascade drained, and how long the replay took.
func loadHosted(opts system.Options, ds *datagen.Dataset, batch, writers int) (*system.System, time.Duration, error) {
	sys, err := system.Open(opts)
	if err != nil {
		return nil, 0, err
	}
	took, err := replay(sys.Host, ds, batch, writers)
	if err = errors.Join(err, sys.Aion.WaitSync()); err != nil {
		sys.Close()
		return nil, 0, err
	}
	return sys, took, nil
}

// replay re-issues ds through host transactions of batch updates each,
// committed by writers goroutines (1: in order), and returns how long that
// took.
func replay(host *hostdb.DB, ds *datagen.Dataset, batch, writers int) (time.Duration, error) {
	batches := make(chan []model.Update, writers) // the next batch ready for each writer
	go func() {
		for lo := 0; lo < len(ds.Updates); lo += batch {
			batches <- ds.Updates[lo:min(lo+batch, len(ds.Updates))]
		}
		close(batches)
	}()
	errs := make(chan error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		go func() {
			var err error
			for b := range batches { // drained to the end, so the feeder exits
				if err == nil {
					_, err = host.Run(func(tx *hostdb.Tx) error { return replayBatch(tx, b) })
				}
			}
			errs <- err
		}()
	}
	var err error
	for w := 0; w < writers; w++ {
		err = errors.Join(err, <-errs)
	}
	return time.Since(start), err
}

// replayBatch re-issues a generated update batch through a transaction.
// Generated ids are dense and line up with the host's id allocator when
// batches arrive in order; out-of-order arrival only reorders timestamps,
// which is harmless for a throughput measurement, so conflicts (an endpoint
// not yet created by another writer's batch, an entity a reordered batch
// created or removed) are tolerated by retry-free skipping: the transaction
// refuses the update, and the refusal is dropped.
func replayBatch(tx *hostdb.Tx, batch []model.Update) error {
	for _, u := range batch {
		var err error
		switch u.Kind {
		case model.OpAddNode:
			err = tx.CreateNodeWithID(u.NodeID, u.AddLabels, u.SetProps)
		case model.OpAddRel:
			err = tx.CreateRelWithID(u.RelID, u.Src, u.Tgt, u.RelLabel, u.SetProps)
		case model.OpUpdateNode:
			err = tx.SetNodeProps(u.NodeID, u.SetProps, u.DelProps)
		case model.OpUpdateRel:
			err = tx.SetRelProps(u.RelID, u.SetProps, u.DelProps)
		case model.OpDeleteRel:
			err = tx.DeleteRel(u.RelID)
		case model.OpDeleteNode:
			err = tx.DeleteNode(u.NodeID)
		}
		if err != nil && !errors.Is(err, model.ErrExists) && !errors.Is(err, model.ErrNotFound) && !errors.Is(err, model.ErrDangling) {
			return err
		}
	}
	return nil
}

// opsPerSec converts a run into a throughput figure.
func opsPerSec(ops int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds()
}

// randTimestamps draws n random query timestamps in [1, maxTS].
func randTimestamps(rng *rand.Rand, n int, maxTS model.Timestamp) []model.Timestamp {
	out := make([]model.Timestamp, n)
	for i := range out {
		out[i] = model.Timestamp(rng.Int63n(int64(maxTS)) + 1)
	}
	return out
}

// randRelQueries draws n random (relationship, timestamp) point queries.
func randRelQueries(rng *rand.Rand, ds *datagen.Dataset, n int) ([]model.RelID, []model.Timestamp) {
	ids := make([]model.RelID, n)
	tss := randTimestamps(rng, n, ds.MaxTS)
	for i := range ids {
		ids[i] = ds.RelIDs[rng.Intn(len(ds.RelIDs))]
	}
	return ids, tss
}

// table is a simple column-aligned printer; units go in the headers, so every
// measured cell is a plain number.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

// emit prints t under title and returns it as the report records it: the
// printed table is an experiment's one result. An attached report keeps it too.
func (c *Config) emit(t *table, title string) Table {
	rec := t.record(title)
	c.Report.add(rec)
	fmt.Fprintf(c.Out, "\n== %s ==\n", title)
	widths := make([]int, len(t.header))
	for _, r := range append([][]string{t.header}, t.rows...) {
		for i, cell := range r {
			widths[i] = max(widths[i], len(cell))
		}
	}
	for _, r := range append([][]string{t.header}, t.rows...) {
		parts := make([]string, len(r))
		for i, cell := range r {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(c.Out, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	return rec
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func fi(v int64) string   { return fmt.Sprintf("%d", v) }
func kb(bytes int64) string {
	return fmt.Sprintf("%.1f", float64(bytes)/(1<<10))
}
func ms(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()*1000) }
