package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"aion/internal/aion"
	"aion/internal/cypher"
	"aion/internal/hostdb"
	"aion/internal/lineagestore"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/timestore"
)

// span is one traced call: the boundary and class it belongs to, when it
// ran relative to the start of the traced run, the span that caused it
// (-1 for a root) and the op both share.
type span struct {
	name       string
	start, end int64 // ns since the trace began
	parent     int
	opID       int
}

// spanLog keeps every span in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
	cur   int // root span of the op in flight
}

func (l *spanLog) begin(name string, opID int) {
	l.cur = len(l.spans)
	l.spans = append(l.spans, span{name: name, parent: -1, opID: opID})
}

func (l *spanLog) end(start time.Time, d time.Duration) {
	s := &l.spans[l.cur]
	s.start = int64(start.Sub(l.t0))
	s.end = s.start + int64(d)
}

// child records a completed call made on behalf of the op in flight.
func (l *spanLog) child(name string, start, end time.Time) {
	l.spans = append(l.spans, span{name: name, start: int64(start.Sub(l.t0)), end: int64(end.Sub(l.t0)),
		parent: l.cur, opID: l.spans[l.cur].opID})
}

// p50 returns the median duration in ns of the spans with this name.
func (l *spanLog) p50(name string) float64 {
	var ds []uint32
	for i := range l.spans {
		if s := &l.spans[i]; s.name == name {
			ds = append(ds, uint32(min(s.end-s.start, 1<<32-1)))
		}
	}
	return median32(ds)
}

func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, "[")
	for i, s := range l.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op_id\":%d}", s.name, s.start, s.end, s.parent, s.opID)
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The ladder: one pass per public boundary, outermost first. A pass replays
// the workload's script through its boundary alone; a layer's self time is
// its pass's class p50 minus the pass below.
const (
	passBolt   = "bolt.Client.Run"
	passEngine = "cypher.Engine.QueryContext"
	passExec   = "cypher.Parse+ExecContext"
	passAPI    = "aion.DB+hostdb.Tx"
	passStore  = "lineagestore.Store+timestore.Store"

	spanParse = "cypher.Parse"
	spanExec  = "cypher.Engine.ExecContext"
)

// parseExecBoundary splits the engine call into its two public halves and
// records each as a child span.
type parseExecBoundary struct {
	eng *cypher.Engine
	log *spanLog
}

func (b parseExecBoundary) do(o *op, p map[string]model.Value) (reply, error) {
	t0 := time.Now()
	st, err := cypher.Parse(queries[o.kind])
	t1 := time.Now()
	if err != nil {
		return reply{}, err
	}
	res, err := b.eng.ExecContext(context.Background(), st, p)
	t2 := time.Now()
	class := "/" + classNames[classOf[o.kind]]
	b.log.child(spanParse+class, t0, t1)
	b.log.child(spanExec+class, t1, t2)
	if err != nil {
		return reply{}, err
	}
	return replyOfRows(o.kind, res.Rows, writeSummary{res.NodesCreated, res.RelsCreated, res.PropsSet, res.RelsDeleted, res.CommitTS}), nil
}

// apiBoundary calls what the Cypher executor calls: the aion.DB Table 1
// methods for temporal reads, and the host's transaction API for
// current-state reads and writes (the commit listener feeds Aion as usual).
type apiBoundary struct{ st *store }

func (b apiBoundary) do(o *op, _ map[string]model.Value) (reply, error) {
	ctx := context.Background()
	db, host := b.st.sys.Aion, b.st.sys.Host
	ts := model.Timestamp(o.ts)
	switch o.kind {
	case kindNodeAsOf:
		ns, err := db.GetNodeContext(ctx, model.NodeID(o.id), ts, ts)
		return nodesReply(ns), err
	case kindNodeHistory:
		ns, err := db.GetNodeContext(ctx, model.NodeID(o.id), ts+1, model.Timestamp(o.ts2))
		return nodesReply(ns), err
	case kindRelAsOf:
		rs, err := db.GetRelationshipContext(ctx, model.RelID(o.id), ts, ts)
		return relsReply(rs), err
	case kindExpand1:
		hs, err := db.GetRelationshipsContext(ctx, model.NodeID(o.id), model.Outgoing, ts, ts)
		return reply{rows: len(hs)}, err
	case kindSnapshot:
		g, err := db.GraphAtContext(ctx, ts)
		if err != nil {
			return reply{}, err
		}
		return reply{rows: 1, val: int64(g.NodeCount())}, nil
	case kindCurrent:
		var n *model.Node
		host.View(func(g *memgraph.Graph) { n = g.Node(model.NodeID(o.id)) })
		r := nodeReply(1, n)
		r.start = 0
		return r, nil
	}
	r := reply{val: 1}
	cts, err := host.Run(func(tx *hostdb.Tx) error {
		switch o.kind {
		case kindCreateNode:
			id, err := tx.CreateNode([]string{"Bench"}, model.Properties{"k": model.IntValue(o.v)})
			r.rows, r.id = 1, int64(id)
			return err
		case kindSetProp:
			return tx.SetNodeProps(model.NodeID(o.id), model.Properties{"w": model.IntValue(o.v)}, nil)
		case kindCreateRel:
			_, err := tx.CreateRel(model.NodeID(o.id), model.NodeID(o.id2), "BENCH", nil)
			return err
		default: // kindDeleteRel
			rids := tx.IncidentRels(model.NodeID(o.id))
			if len(rids) != 1 {
				return fmt.Errorf("node %d has %d relationships, want the one just created", o.id, len(rids))
			}
			return tx.DeleteRel(rids[0])
		}
	})
	r.start = int64(cts)
	return r, err
}

// storeBoundary calls the store each temporal read ends in, directly.
type storeBoundary struct {
	ls *lineagestore.Store
	ts *timestore.Store
}

func (b storeBoundary) handles(k opKind) bool { return k <= kindSnapshot }

func (b storeBoundary) do(o *op, _ map[string]model.Value) (reply, error) {
	ctx := context.Background()
	ts := model.Timestamp(o.ts)
	switch o.kind {
	case kindNodeAsOf:
		ns, err := b.ls.GetNodeContext(ctx, model.NodeID(o.id), ts, ts)
		return nodesReply(ns), err
	case kindNodeHistory:
		ns, err := b.ls.GetNodeContext(ctx, model.NodeID(o.id), ts+1, model.Timestamp(o.ts2))
		return nodesReply(ns), err
	case kindRelAsOf:
		rs, err := b.ls.GetRelationshipContext(ctx, model.RelID(o.id), ts, ts)
		return relsReply(rs), err
	case kindExpand1:
		hs, err := b.ls.GetRelationshipsContext(ctx, model.NodeID(o.id), model.Outgoing, ts, ts)
		return reply{rows: len(hs)}, err
	case kindSnapshot:
		g, err := b.ts.GetGraphContext(ctx, ts)
		if err != nil {
			return reply{}, err
		}
		return reply{rows: 1, val: int64(g.NodeCount())}, nil
	}
	return reply{}, fmt.Errorf("the stores have no entry point for %s", queries[o.kind])
}

func nodesReply(ns []*model.Node) reply {
	if len(ns) == 0 {
		return reply{}
	}
	return nodeReply(len(ns), ns[0])
}

func relsReply(rs []*model.Rel) reply {
	if len(rs) == 0 {
		return reply{}
	}
	return relReply(len(rs), rs[0])
}

// procReading is the process-wide pseudo-layer: Go runtime and rusage.
type procReading struct {
	mem runtime.MemStats
	cpu time.Duration
}

func readProc() procReading {
	var p procReading
	runtime.ReadMemStats(&p.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

// passResult is what one pass of the ladder measured.
type passResult struct {
	rec      *recorder
	classP50 [numClasses]float64 // ns; 0 when the pass ran no op of the class
	kindP50  [numKinds]float64
	elapsed  time.Duration
	// history ops in the pass and the versions the oracle says they return
	histOps, histRows int
}

func summarize(rec *recorder, elapsed time.Duration) passResult {
	pr := passResult{rec: rec, elapsed: elapsed}
	var byClass [numClasses][]uint32
	var byKind [numKinds][]uint32
	for i, l := range rec.lat {
		k := rec.kinds[i]
		byKind[k] = append(byKind[k], l)
		byClass[classOf[k]] = append(byClass[classOf[k]], l)
	}
	for c := range byClass {
		pr.classP50[c] = median32(byClass[c])
	}
	for k := range byKind {
		pr.kindP50[k] = median32(byKind[k])
	}
	return pr
}

// runTraced replays the workload's script once per boundary with a span
// around every call, times direct calls on scratch instances fed the same
// update stream, and reports the per-layer metrics. Nothing here feeds an
// end-to-end metric.
func runTraced(c runConfig, tracePath string) (*result, error) {
	ds, err := genDataset(c.seed, c.size.scale, c.size.batch)
	if err != nil {
		return nil, err
	}
	root, err := newRunDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	st, setup, err := setUp(ds, root+"/db", c.w.aionOptions(c.size), true)
	if err != nil {
		return nil, err
	}
	defer st.close()

	m := &metricSet{}
	m.add("system.load_s", setup.load.Seconds(), "s")
	m.add("system.reopen_s", setup.reopen.Seconds(), "s")

	// Seven passes share the run's op budget; a pass needs thousands of ops
	// for a class median, not millions.
	perPass := max(40, min(20_000, c.totalOps()/6)/40*40)
	gen := newScriptGen(ds, c.seed, c.w.mix)
	log := &spanLog{t0: time.Now()}
	res := &result{workload: c.w.name, correct: true}
	buf := make([]op, perPass)
	db := st.sys.Aion
	watch := &cacheWatch{gs: db.TimeStore().GraphStore()}

	// pass replays the next perPass ops the boundary has an entry point
	// for; traced passes leave one root span per op.
	pass := func(name string, b boundary, traced bool) passResult {
		gen.only = nil
		if h, ok := b.(interface{ handles(opKind) bool }); ok {
			gen.only = h.handles
			handled := false
			for _, k := range c.w.kinds {
				handled = handled || h.handles(k)
			}
			if !handled {
				return passResult{rec: newRecorder(0)}
			}
		}
		gen.fill(buf)
		rec := newRecorder(perPass)
		if traced {
			rec.spans, rec.spanName = log, name
		}
		if c.w.smallCache { // only snapshot reads consult the cache
			watch.inner, b = b, watch
		}
		start := time.Now()
		rec.replay(b, buf, true)
		pr := summarize(rec, time.Since(start))
		for i := range buf {
			if buf[i].kind == kindNodeHistory {
				pr.histOps++
				pr.histRows += buf[i].want.rows
			}
		}
		res.attempted += rec.attempted
		if res.failed += rec.failed; res.firstFail == "" && rec.firstFail != "" {
			res.firstFail = name + ": " + rec.firstFail
		}
		return pr
	}

	var top boundary = engineBoundary{st.eng}
	topName := passEngine
	if c.w.overBolt {
		top, topName = boltBoundary{st.cl}, passBolt
	}
	// The workload's own boundary, untraced: the driver and proc
	// pseudo-layers and the counters every layer keeps about itself.
	pass(topName, top, false) // warm-up, discarded
	procBefore, ctrBefore, watchFrom := readProc(), readCounters(st), len(watch.missed)
	plain := pass(topName, top, false)
	procAfter, ctrAfter := readProc(), readCounters(st)
	hitMiss := watch.since(watchFrom) // empty unless the workload reads snapshots

	ladder := map[string]passResult{
		passBolt:   pass(passBolt, boltBoundary{st.cl}, true),
		passEngine: pass(passEngine, engineBoundary{st.eng}, true),
		passExec:   pass(passExec, parseExecBoundary{st.eng, log}, true),
		passAPI:    pass(passAPI, apiBoundary{st}, true),
	}
	storeCtr := readCounters(st)
	ladder[passStore] = pass(passStore, storeBoundary{db.LineageStore(), db.TimeStore()}, true)
	storeReplayed := readCounters(st).ts.ReplayedUpdates - storeCtr.ts.ReplayedUpdates

	dc := c.w.classOrder[c.w.p50Class].class
	us := func(ns float64) float64 { return ns / 1e3 }
	selfUS := func(upper, lower float64) float64 {
		if upper == 0 || lower == 0 {
			return 0
		}
		return us(upper - lower)
	}
	n := float64(len(plain.rec.lat))

	// driver
	for _, cl := range []opClass{classPoint, classHistory, classExpand1, classCurrent, classWrite} {
		m.add("driver.class."+classNames[cl]+"_p50_us", us(plain.classP50[cl]), "us")
	}
	var hits, misses []uint32
	for i, l := range plain.rec.lat {
		if len(hitMiss) > 0 {
			if hitMiss[i] {
				misses = append(misses, l)
			} else {
				hits = append(hits, l)
			}
		}
	}
	m.add("driver.class.snapshot_hit_p50_ms", median32(hits)/1e6, "ms")
	m.add("driver.class.snapshot_miss_p50_ms", median32(misses)/1e6, "ms")
	sorted := sortedCopy(plain.rec.lat)
	m.add("driver.lat_p90_us", us(quantile(sorted, 0.90)), "us")
	m.add("driver.lat_p99_us", us(quantile(sorted, 0.99)), "us")
	// ops_per_s and lat_p50_us as the issue defines them for the gate, on
	// this run's shorter pass: reported here, not gated, because unchanged
	// code runs 15-25 % apart on this sandbox from one minute to the next.
	rates := roundRates(plain.rec.lat)
	m.add("driver.ops_per_s", medianFloat(rates), "1/s")
	m.add("driver.lat_p50_us", us(quantile(sorted, 0.50)), "us")
	m.add("driver.ops_per_s_raw", n/plain.elapsed.Seconds(), "1/s")
	m.add("driver.round_spread_frac", ratio(slices.Max(rates)-slices.Min(rates), medianFloat(rates)), "fraction")
	m.add("driver.trace_overhead_frac", ratio(ladder[topName].classP50[dc], plain.classP50[dc])-1, "fraction")

	// proc
	m.add("proc.alloc_bytes_per_op", float64(procAfter.mem.TotalAlloc-procBefore.mem.TotalAlloc)/n, "B")
	m.add("proc.allocs_per_op", float64(procAfter.mem.Mallocs-procBefore.mem.Mallocs)/n, "count")
	m.add("proc.gc_cycles", float64(procAfter.mem.NumGC-procBefore.mem.NumGC), "count")
	m.add("proc.gc_pause_ms", float64(procAfter.mem.PauseTotalNs-procBefore.mem.PauseTotalNs)/1e6, "ms")
	m.add("proc.cpu_us_per_op", float64((procAfter.cpu-procBefore.cpu).Microseconds())/n, "us")

	// bolt, cypher, aion: the ladder's self times on the class the
	// workload's p50 sits in
	m.add("bolt.self_p50_us", selfUS(ladder[passBolt].classP50[dc], ladder[passEngine].classP50[dc]), "us")
	rows, err := hubRowsPerSecond(st, ds)
	if err != nil {
		return nil, err
	}
	m.add("bolt.rows_per_s", rows, "1/s")
	m.add("cypher.parse_p50_us", us(log.p50(spanParse+"/"+classNames[dc])), "us")
	m.add("cypher.exec_self_p50_us", selfUS(log.p50(spanExec+"/"+classNames[dc]), ladder[passAPI].classP50[dc]), "us")
	m.add("aion.self_p50_us", selfUS(ladder[passAPI].classP50[dc], ladder[passStore].classP50[dc]), "us")
	lineage, timeStore := ctrAfter.lineage-ctrBefore.lineage, ctrAfter.timeStore-ctrBefore.timeStore
	m.add("aion.planner_lineage_frac", ratio(float64(lineage), float64(lineage+timeStore)), "fraction")

	// lineagestore, timestore, graphstore: the bottom pass and the counters
	sp := ladder[passStore]
	m.add("lineagestore.get_node_p50_us", us(sp.kindP50[kindNodeAsOf]), "us")
	m.add("lineagestore.get_rel_p50_us", us(sp.kindP50[kindRelAsOf]), "us")
	m.add("lineagestore.history_p50_us", us(sp.kindP50[kindNodeHistory]), "us")
	m.add("lineagestore.expand1_p50_us", us(sp.kindP50[kindExpand1]), "us")
	m.add("lineagestore.versions_per_history_op", ratio(float64(sp.histRows), float64(sp.histOps)), "count")
	m.add("timestore.get_graph_p50_ms", sp.kindP50[kindSnapshot]/1e6, "ms")
	snapOps := 0
	for _, k := range sp.rec.kinds {
		if k == kindSnapshot {
			snapOps++
		}
	}
	m.add("timestore.replayed_updates_per_op", ratio(float64(storeReplayed), float64(snapOps)), "count")
	m.add("graphstore.hit_frac", ratio(float64(hitsIn(hitMiss)), float64(len(hitMiss))), "fraction")
	m.add("graphstore.evictions", float64(ctrAfter.ts.GraphStore.Evictions-ctrBefore.ts.GraphStore.Evictions), "count")
	m.add("graphstore.cached_mb", float64(ctrAfter.ts.GraphStore.Bytes)/(1<<20), "MiB")

	// hostdb: the workload's own commits, counted by the host
	commits := float64(ctrAfter.host.Commits - ctrBefore.host.Commits)
	m.add("hostdb.fsyncs_per_commit", ratio(float64(ctrAfter.host.Fsyncs-ctrBefore.host.Fsyncs), commits), "count")
	m.add("hostdb.commits_per_batch", ratio(commits, float64(ctrAfter.host.Batches-ctrBefore.host.Batches)), "count")

	if err := writeProbe(st, root, m); err != nil {
		return nil, err
	}
	if err := st.drain(); err != nil {
		return nil, err
	}
	m.add("hostdb.store_bytes_per_update", float64(st.sys.Host.Storage().Total())/float64(db.TimeStore().Stats().Updates), "B")
	if err := scratchProbes(ds, root, c.w.aionOptions(c.size), m); err != nil {
		return nil, err
	}

	if err := log.writeFile(tracePath); err != nil {
		return nil, err
	}
	res.correct = res.failed == 0
	res.metrics = m.list
	res.digest, res.samples = gen.digest.Sum64(), len(log.spans)
	res.notes = append(res.notes,
		fmt.Sprintf("traced run: %d ops per pass, %d spans written to %s; self times are on class %q", perPass, len(log.spans), tracePath, classNames[dc]),
		"budget ladder, class p50 in us per pass (0: the pass has no entry point for the class):")
	for _, name := range []string{passBolt, passEngine, passExec, passAPI, passStore} {
		line := fmt.Sprintf("  %-36s", name)
		for _, cs := range c.w.classOrder {
			line += fmt.Sprintf(" %s=%.2f", classNames[cs.class], us(ladder[name].classP50[cs.class]))
		}
		res.notes = append(res.notes, line)
	}
	return res, nil
}

// roundRates cuts a pass into `rounds` equal slices and returns each one's
// throughput: how far apart equal work ran inside one process.
func roundRates(lat []uint32) []float64 {
	per := max(1, len(lat)/rounds)
	var rates []float64
	for lo := 0; lo+per <= len(lat); lo += per {
		var sum float64
		for _, l := range lat[lo : lo+per] {
			sum += float64(l)
		}
		rates = append(rates, float64(per)/(sum/1e9))
	}
	return rates
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricSet collects metrics in a fixed order.
type metricSet struct{ list []metric }

func (m *metricSet) add(name string, v float64, unit string) {
	m.list = append(m.list, metric{name, v, unit})
}

// hubRowsPerSecond streams the highest-degree node's 1-hop result over the
// wire: rows per second of one large result.
func hubRowsPerSecond(st *store, ds *dataset) (float64, error) {
	hub, deg := 0, 0
	for id, out := range ds.oracle.outTS {
		if len(out) > deg {
			hub, deg = id, len(out)
		}
	}
	p := map[string]model.Value{"id": model.IntValue(int64(hub)), "ts": model.IntValue(ds.oracle.lastTS)}
	var rates []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		_, rows, _, err := st.cl.Run(queries[kindExpand1], p)
		if err != nil {
			return 0, err
		}
		if len(rows) != deg {
			return 0, fmt.Errorf("hub %d streamed %d rows, oracle says %d", hub, len(rows), deg)
		}
		rates = append(rates, float64(len(rows))/time.Since(t0).Seconds())
	}
	return medianFloat(rates), nil
}

// timeEach runs fn n times and returns the median duration.
func timeEach(n int, fn func(i int) error) (time.Duration, error) {
	ds := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds = append(ds, uint32(min(time.Since(t0), 1<<32-1)))
	}
	return time.Duration(median32(ds)), nil
}

// probeWrites is how many single-update commits the write probes time.
const probeWrites = 400

// writeProbe times single-statement durable writes through the Engine on
// the store under test against the same commits on a bare host (no Aion
// attached, SyncCommits as in serving): what the temporal stores add to a
// commit whose floor is two fsyncs at the sandbox's price.
func writeProbe(st *store, root string, m *metricSet) error {
	p := map[string]model.Value{}
	engine, err := timeEach(probeWrites, func(i int) error {
		p["v"] = model.IntValue(int64(i))
		_, err := st.eng.QueryContext(context.Background(), queries[kindCreateNode], p)
		return err
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := st.sys.Aion.WaitSync(); err != nil {
		return err
	}
	m.add("aion.cascade_drain_ms", float64(time.Since(t0).Microseconds())/1e3, "ms")

	dir := root + "/barehost"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	host, err := hostdb.Open(hostdb.Options{Dir: dir, SyncCommits: true})
	if err != nil {
		return err
	}
	defer host.Close()
	bare, err := timeEach(probeWrites, func(i int) error {
		_, err := host.Run(func(tx *hostdb.Tx) error {
			_, err := tx.CreateNode([]string{"Bench"}, model.Properties{"k": model.IntValue(int64(i))})
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	m.add("hostdb.commit_p50_us", float64(bare.Nanoseconds())/1e3, "us")
	m.add("aion.ingest_overhead_x", ratio(float64(engine), float64(bare)), "x")
	return nil
}

// stamped returns the load stream with the commit timestamps the host
// assigned, which is what the stores below it were fed.
func (ds *dataset) stamped() []model.Update {
	us := make([]model.Update, len(ds.updates))
	for i, u := range ds.updates {
		u.TS = model.Timestamp(i/ds.batch + 1)
		us[i] = u
	}
	return us
}

// batches calls fn with each load transaction's updates.
func (ds *dataset) batches(us []model.Update, fn func([]model.Update) error) error {
	for lo := 0; lo < len(us); lo += ds.batch {
		if err := fn(us[lo:min(lo+ds.batch, len(us))]); err != nil {
			return err
		}
	}
	return nil
}

// perUpdateUS is elapsed time per update in microseconds.
func perUpdateUS(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }

// aionScratch feeds the load stream to a fresh aion.DB: the synchronous
// part of ingest per update, as the commit listener pays it.
func aionScratch(ds *dataset, us []model.Update, root string, opts aion.Options, m *metricSet) error {
	opts.Dir = root + "/aion"
	db, err := aion.Open(opts)
	if err != nil {
		return err
	}
	defer db.Close()
	t0 := time.Now()
	if err := ds.batches(us, db.ApplyBatch); err != nil {
		return err
	}
	m.add("aion.apply_us_per_update", perUpdateUS(time.Since(t0), len(us)), "us")
	return db.WaitSync()
}
