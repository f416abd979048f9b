package bench

import (
	"context"
	"fmt"

	"aion/internal/datagen"
	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/timestore"
)

// HistoryRow is one layout of the stand-alone TimeStore sweep: what its
// policy wrote, and GetGraph's latency at each depth of history.
type HistoryRow struct {
	Config    string
	Snapshots int
	DiskBytes int64
	Millis    []float64 // per query, at each of historyDepths
	Replayed  float64   // log updates replayed per query
}

// historyDepths are how far back the sweep's queries reach, as fractions of
// the loaded history.
var historyDepths = []float64{0.10, 0.50, 1.00}

// RunHistory is the stand-alone TimeStore option sweep. Each layout loads the
// first dataset; then GetGraph is timed at three depths of history:
//   - no snapshots: replay from genesis, the O(history) baseline;
//   - operation-based policy snapshots at three intervals (Sec 4.3 leaves the
//     interval to a user policy: fewer snapshots save disk but lengthen the
//     replay);
//   - the middle interval with a one-worker snapshot pipeline
//     (Options.ParallelIO; the default is one worker per core).
//
// The snapshot cache is squeezed to a token budget so each query pays the real
// materialization cost of its layout.
func RunHistory(c Config, mkdir func(string) string) ([]HistoryRow, error) {
	c.Defaults()
	ds := c.genDataset(c.Datasets[0], datagen.Options{})
	n := len(ds.Updates)
	layouts := []struct {
		label string
		opts  timestore.Options
	}{
		{"no snapshots", timestore.Options{SnapshotEveryOps: 1 << 30}},
		{"snapshot every n/2", timestore.Options{SnapshotEveryOps: n/2 + 1}},
		{"snapshot every n/8", timestore.Options{SnapshotEveryOps: n/8 + 1}},
		{"snapshot every n/32", timestore.Options{SnapshotEveryOps: n/32 + 1}},
		{"n/8, 1 IO worker", timestore.Options{SnapshotEveryOps: n/8 + 1, ParallelIO: 1}},
	}
	header := []string{"config", "snapshots", "disk (MB)"}
	for _, depth := range historyDepths {
		header = append(header, fmt.Sprintf("GetGraph at %.0f%% (ms)", depth*100))
	}
	t := &table{header: append(header, "replayed/op")}
	var rows []HistoryRow
	for _, l := range layouts {
		opts := l.opts
		opts.Dir = mkdir("history")
		opts.GraphStoreBytes = 4096 // effectively uncached: pay the real cost
		st, err := timestore.Open(enc.NewCodec(strstore.NewMem()), opts)
		if err != nil {
			return nil, err
		}
		row, err := historyRow(c, st, ds)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		row.Config = l.label
		rows = append(rows, row)
		cells := []string{l.label, fi(int64(row.Snapshots)), mb(row.DiskBytes)}
		for _, v := range row.Millis {
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		t.add(append(cells, f1(row.Replayed))...)
	}
	c.emit(t, fmt.Sprintf("TimeStore sweep: GetGraph latency vs history depth (%s, %d updates)", c.Datasets[0], n))
	return rows, nil
}

// historyRow loads ds into st in batches of 256 and measures GetGraph at each
// depth: GlobalOps queries a run, their timestamps stepped so no two share a
// cache slot.
func historyRow(c Config, st *timestore.Store, ds *datagen.Dataset) (HistoryRow, error) {
	for lo := 0; lo < len(ds.Updates); lo += 256 {
		if err := st.AppendBatch(ds.Updates[lo:min(lo+256, len(ds.Updates))]); err != nil {
			return HistoryRow{}, err
		}
	}
	if err := st.Flush(); err != nil {
		return HistoryRow{}, err
	}
	st.WaitSnapshots()
	maxTS := st.LatestTimestamp()
	sides := make([]side, len(historyDepths))
	for i, depth := range historyDepths {
		ts0 := max(model.Timestamp(float64(maxTS)*depth), 1)
		sides[i] = timed(func() error {
			for k := 0; k < c.GlobalOps; k++ {
				if _, err := st.GetGraphContext(context.Background(), max(ts0-model.Timestamp(k), 1)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	before := st.Stats().ReplayedUpdates
	d, err := measure(sides...)
	if err != nil {
		return HistoryRow{}, err
	}
	queries := (rounds + 1) * len(sides) * c.GlobalOps
	row := HistoryRow{Snapshots: st.Stats().Snapshots, DiskBytes: st.DiskBytes(),
		Replayed: float64(st.Stats().ReplayedUpdates-before) / float64(queries)}
	for _, v := range d {
		row.Millis = append(row.Millis, v.Seconds()*1000/float64(c.GlobalOps))
	}
	return row, nil
}
