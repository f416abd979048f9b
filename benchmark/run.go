package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"aion/internal/bolt"
	"aion/internal/cypher"
	"aion/internal/model"
)

// boundary is one public entry point a script is replayed through.
type boundary interface {
	do(o *op, p map[string]model.Value) (reply, error)
}

// engineBoundary calls cypher.Engine.QueryContext.
type engineBoundary struct{ eng *cypher.Engine }

func (b engineBoundary) do(o *op, p map[string]model.Value) (reply, error) {
	res, err := b.eng.QueryContext(context.Background(), queries[o.kind], p)
	if err != nil {
		return reply{}, err
	}
	return replyOfRows(o.kind, res.Rows, writeSummary{res.NodesCreated, res.RelsCreated, res.PropsSet, res.RelsDeleted, res.CommitTS}), nil
}

// boltBoundary calls bolt.Client.Run on the one loopback connection.
type boltBoundary struct{ cl *bolt.Client }

func (b boltBoundary) do(o *op, p map[string]model.Value) (reply, error) {
	_, rows, sum, err := b.cl.Run(queries[o.kind], p)
	if err != nil {
		return reply{}, err
	}
	var ws writeSummary
	if sum != nil {
		ws = writeSummary{sum.NodesCreated, sum.RelsCreated, sum.PropsSet, sum.RelsDeleted, sum.CommitTS}
	}
	return replyOfRows(o.kind, rows, ws), nil
}

type writeSummary struct {
	nodesCreated, relsCreated, propsSet, relsDeleted int
	commitTS                                         model.Timestamp
}

// replyOfRows reduces a statement's result table and write summary to the
// fields the oracle predicts.
func replyOfRows(k opKind, rows [][]cypher.Val, ws writeSummary) reply {
	var first cypher.Val
	if len(rows) > 0 && len(rows[0]) > 0 {
		first = rows[0][0]
	}
	switch k {
	case kindNodeAsOf, kindNodeHistory:
		return nodeReply(len(rows), first.Node)
	case kindCurrent:
		r := nodeReply(len(rows), first.Node)
		r.start = 0
		return r
	case kindRelAsOf:
		return relReply(len(rows), first.Rel)
	case kindExpand1:
		return reply{rows: len(rows)}
	case kindSnapshot:
		return reply{rows: len(rows), val: first.S.Int()}
	case kindCreateNode:
		return reply{rows: len(rows), id: first.S.Int(), start: int64(ws.commitTS), val: int64(ws.nodesCreated)}
	case kindSetProp:
		return reply{start: int64(ws.commitTS), val: int64(ws.propsSet)}
	case kindCreateRel:
		return reply{start: int64(ws.commitTS), val: int64(ws.relsCreated)}
	case kindDeleteRel:
		return reply{start: int64(ws.commitTS), val: int64(ws.relsDeleted)}
	}
	return reply{}
}

// recorder accumulates what one replay of a script observed.
type recorder struct {
	lat       []uint32 // per measured op, nanoseconds, in script order
	kinds     []opKind
	attempted int
	failed    int
	firstFail string
	acked     []op // acknowledged writes, for the durability check
	params    map[string]model.Value
	// spans, when set, receives one root span per op named spanName/class.
	spans    *spanLog
	spanName string
}

func newRecorder(capacity int) *recorder {
	return &recorder{lat: make([]uint32, 0, capacity), kinds: make([]opKind, 0, capacity),
		params: make(map[string]model.Value, 4)}
}

// replay runs ops through b one at a time, each checked against its
// precomputed answer; only measured ops leave a latency sample.
func (r *recorder) replay(b boundary, ops []op, measured bool) {
	for i := range ops {
		o := &ops[i]
		p := o.params(r.params)
		r.attempted++
		if r.spans != nil {
			r.spans.begin(r.spanName+"/"+classNames[classOf[o.kind]], r.attempted)
		}
		t0 := time.Now()
		got, err := b.do(o, p)
		d := time.Since(t0)
		if r.spans != nil {
			r.spans.end(t0, d)
		}
		switch {
		case err != nil:
			r.fail(fmt.Sprintf("op %d %s: %v", r.attempted, queries[o.kind], err))
			d = 1<<32 - 1 // a failed op misses any limit
		case got != o.want:
			r.fail(fmt.Sprintf("op %d %s %v: got %+v, oracle says %+v", r.attempted, queries[o.kind], p, got, o.want))
			d = 1<<32 - 1
		case o.kind.isWrite():
			r.acked = append(r.acked, *o)
		}
		if measured {
			r.lat = append(r.lat, uint32(min(d, 1<<32-1)))
			r.kinds = append(r.kinds, o.kind)
		}
	}
}

func (r *recorder) fail(msg string) {
	if r.failed++; r.firstFail == "" {
		r.firstFail = msg
	}
}

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	return float64(sorted[min(i, len(sorted)-1)])
}

func sortedCopy(xs []uint32) []uint32 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median32 is the median of unsorted samples.
func median32(xs []uint32) float64 { return quantile(sortedCopy(xs), 0.5) }

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one run of one workload reports.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	firstFail string
	metrics   []metric
	// context printed with the metrics but not part of the contract line
	digest  uint64
	samples int
	notes   []string
	// exact holds counters that identical work must reproduce bit for bit.
	exact []exactCounter
}

type exactCounter struct {
	name  string
	value int64
}

// runConfig is one run's inputs.
type runConfig struct {
	w       *workload
	seed    int64
	seconds int
	size    sizing
	ops     int // overrides opsPerSecond × seconds when > 0 (tests)
}

func (c runConfig) totalOps() int {
	n := c.ops
	if n <= 0 {
		n = c.w.opsPerSecond * c.seconds
	}
	// Equal rounds, each of whole script cycles so every round does the
	// same work and deletes the relationships it created.
	unit := rounds * c.w.cycle()
	return max(unit, n/unit*unit)
}

// runGated is the untraced run: it produces the end-to-end metrics.
func runGated(c runConfig) (*result, error) {
	began := time.Now()
	ds, err := genDataset(c.seed, c.size.scale, c.size.batch)
	if err != nil {
		return nil, err
	}
	generated := time.Since(began)
	root, err := newRunDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	st, setup, err := setUp(ds, root+"/db", c.w.aionOptions(c.size), c.w.overBolt)
	if err != nil {
		return nil, err
	}
	// The update stream is the benchmark's, not the system's: released, it
	// is neither in heap_live_mb nor work for the collector.
	loadedUpdates, loadCommits := len(ds.updates), ds.loadCommits()
	ds.updates = nil
	// Whatever the load left dirty is written back now, not under the
	// measured phase's fsyncs.
	syscall.Sync()
	defer func() {
		if st != nil {
			st.close()
		}
	}()

	var b boundary = engineBoundary{st.eng}
	if c.w.overBolt {
		b = boltBoundary{st.cl}
	}
	watch := &cacheWatch{inner: b, gs: st.sys.Aion.TimeStore().GraphStore()}
	if c.w.smallCache {
		b = watch
	}
	total := c.totalOps()
	perRound := total / rounds
	gen := newScriptGen(ds, c.seed, c.w.mix)
	rec := newRecorder(total)
	buf := make([]op, perRound)

	before := readCounters(st)
	// Warm-up is 2 % of the ops (noise rule 3), in whole script cycles
	// so the measured rounds start on a cycle boundary.
	cycle := c.w.cycle()
	warm := buf[:min(perRound, max(cycle, total/50/cycle*cycle))]
	gen.fill(warm)
	warmStart := time.Now()
	rec.replay(b, warm, false)
	warmedFor := time.Since(warmStart)
	roundsStart := time.Now()

	var roundRate [rounds]float64
	for r := 0; r < rounds; r++ {
		gen.fill(buf)
		start := time.Now()
		rec.replay(b, buf, true)
		roundRate[r] = float64(perRound) / time.Since(start).Seconds()
	}
	roundsTook := time.Since(roundsStart)
	cacheOps := watch.since(len(warm))
	cacheHits := hitsIn(cacheOps)
	if c.w.smallCache {
		// Which snapshots the cache holds when the script ends depends on
		// the seed's last reads; one pass over the newest quarter leaves
		// every seed with the newest ones before the heap is read.
		rec.replay(b, ds.newestQuarter(), false)
	}
	if err := st.drain(); err != nil {
		return nil, err
	}
	// heap_live_mb is what survives two forced collections at the end of
	// the measured phase (noise rule 6), with the background workers idle.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	after := readCounters(st)
	if err := checkIsolation(c.w, before, after, ratio(float64(cacheHits), float64(len(cacheOps)))); err != nil {
		return nil, err
	}
	disk, err := st.diskBytes()
	if err != nil {
		return nil, err
	}
	updates := after.ts.Updates

	res := &result{workload: c.w.name, digest: gen.digest.Sum64(), samples: len(rec.lat)}
	if c.w.hasWrites() {
		// Durability: close, reopen from the directory alone, and read back
		// every acknowledged write.
		dir := st.dir
		err := st.close()
		st = nil
		if err != nil {
			return nil, err
		}
		if st, err = openStore(dir, c.w.aionOptions(c.size), false); err != nil {
			return nil, fmt.Errorf("reopen for the durability check: %w", err)
		}
		missing, first := checkDurable(st, ds, rec.acked)
		rec.attempted += len(rec.acked)
		if rec.failed += missing; rec.firstFail == "" {
			rec.firstFail = first
		}
		res.notes = append(res.notes, fmt.Sprintf("durability: %d acknowledged writes read back after close and reopen, %d missing; "+
			"SyncCommits=true: every commit waited for its 2 fsyncs, at the sandbox's virtual disk's price, not a device's", len(rec.acked), missing))
	}

	sorted := sortedCopy(rec.lat)
	within := sort.Search(len(sorted), func(i int) bool { return time.Duration(sorted[i]) > c.w.slo })
	res.attempted, res.failed, res.firstFail = rec.attempted, rec.failed, rec.firstFail
	res.correct = rec.failed == 0
	res.metrics = []metric{
		{"setup_s", setup.total().Seconds(), "s"},
		{"slo_ok_frac", float64(within) / float64(len(sorted)), "fraction"},
		{"ok_frac", float64(rec.attempted-rec.failed) / float64(rec.attempted), "fraction"},
		{"disk_bytes_per_update", float64(disk) / float64(updates), "B"},
		{"heap_live_mb", float64(ms.HeapAlloc) / (1 << 20), "MiB"},
	}
	res.notes = append(res.notes,
		fmt.Sprintf("measured phase %.2fs, %d ops in %d rounds after %d warm-up ops; closed loop, 1 client", roundsTook.Seconds(), total, rounds, len(warm)),
		fmt.Sprintf("not gated on this sandbox (the traced run reports them as driver.*): ops_per_s %.1f (median round), lat_p50_us %.3f",
			medianFloat(roundRate[:]), quantile(sorted, 0.50)/1e3),
		fmt.Sprintf("latency us: p50 %.1f, p90 %.1f, p95 %.1f, p98 %.1f, p99 %.1f, p99.5 %.1f, p99.9 %.1f", quantile(sorted, 0.50)/1e3, quantile(sorted, 0.90)/1e3,
			quantile(sorted, 0.95)/1e3, quantile(sorted, 0.98)/1e3, quantile(sorted, 0.99)/1e3, quantile(sorted, 0.995)/1e3, quantile(sorted, 0.999)/1e3),
		fmt.Sprintf("round ops/s: %.0f; set-up: %v", roundRate, setup),
		fmt.Sprintf("wall: generate %.1fs, set-up %.1fs, warm-up %.1fs, rounds %.1fs, drain and checks %.1fs",
			generated.Seconds(), setup.total().Seconds(), warmedFor.Seconds(), roundsTook.Seconds(), time.Since(roundsStart.Add(roundsTook)).Seconds()),
		fmt.Sprintf("dataset: %d nodes, %d rels, %d updates in %d load commits", ds.nodes, ds.rels, loadedUpdates, loadCommits))
	res.exact = []exactCounter{
		{"updates", int64(updates)}, {"disk_bytes", disk},
		{"replayed_updates", int64(after.ts.ReplayedUpdates - before.ts.ReplayedUpdates)},
		{"planner_lineage", after.lineage - before.lineage}, {"planner_timestore", after.timeStore - before.timeStore},
		{"cache_hits", int64(cacheHits)}, {"commits", after.host.Commits - before.host.Commits}, {"fsyncs", after.host.Fsyncs - before.host.Fsyncs},
	}
	return res, nil
}
