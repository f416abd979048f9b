package main

import (
	"time"

	"aion/internal/aion"
)

// rounds is how many equal-op rounds the measured phase is cut into;
// ops_per_s is the median round (noise rule 3).
const rounds = 5

// workload is one closed-loop, single-client script shape.
type workload struct {
	name string
	why  string
	// opsPerSecond fixes the work: a run executes opsPerSecond × -seconds
	// ops whatever the code under test costs (noise rule 1). The values
	// were sized on the seed commit so that one -seconds second of work
	// takes about one second there, then frozen.
	opsPerSecond int
	// slo is the per-op latency limit behind slo_ok_frac.
	slo      time.Duration
	overBolt bool
	mix      func(g *scriptGen, i int) opKind
	// classOrder lists the workload's classes cheapest first with their
	// shares in percent; the p50 must sit at least five points inside the
	// class at index p50Class (noise rule 4).
	classOrder []classShare
	p50Class   int
	kinds      []opKind
	// smallCache shrinks the snapshot cache below the snapshot working set
	// (sizing.snapshotCacheBytes) so cached and uncached reads both run.
	smallCache bool
}

type classShare struct {
	class opClass
	pct   int
}

// aionOptions is the temporal store's configuration for load and serving:
// aion's defaults except the snapshot policy and, for snapshot-asof, the
// cache budget.
func (w *workload) aionOptions(size sizing) aion.Options {
	opts := aion.Options{SnapshotEveryOps: size.snapshotEveryOps}
	if w.smallCache {
		opts.GraphStoreBytes = size.snapshotCacheBytes
	}
	return opts
}

func (w *workload) hasWrites() bool {
	for _, cs := range w.classOrder {
		if cs.class == classWrite {
			return true
		}
	}
	return false
}

// cycle is the length of the workload's repeating script; rounds and the
// warm-up are whole cycles.
func (w *workload) cycle() int {
	switch {
	case w.hasWrites():
		return len(mixedScript) * len(writeCycle)
	case w.smallCache:
		return len(snapshotRecent)
	}
	return 1
}

var writeCycle = [4]opKind{kindCreateNode, kindSetProp, kindCreateRel, kindDeleteRel}

// mixedScript is the fixed repeating script of mixed-serve: five point
// reads, two node histories, one current-state read and two writes.
var mixedScript = [10]opKind{kindNodeAsOf, kindRelAsOf, kindNodeHistory, kindCreateNode, kindNodeAsOf,
	kindCurrent, kindRelAsOf, kindNodeHistory, kindNodeAsOf, kindCreateNode}

var workloads = []*workload{
	{
		name: "point-history",
		why: "LineageStore, btree/pagecache and enc decode do nearly all the work and TimeStore none: " +
			"the Fig 6 shape and the control for any snapshot-path change",
		opsPerSecond: 72_000,
		slo:          50 * time.Microsecond,
		mix: func(g *scriptGen, _ int) opKind {
			switch r := g.rng.Intn(100); {
			case r < 30:
				return kindNodeAsOf
			case r < 60:
				return kindRelAsOf
			case r < 85:
				return kindNodeHistory
			}
			return kindExpand1
		},
		classOrder: []classShare{{classPoint, 60}, {classHistory, 25}, {classExpand1, 15}},
		kinds:      []opKind{kindNodeAsOf, kindRelAsOf, kindNodeHistory, kindExpand1},
	},
	{
		name: "snapshot-asof",
		why: "TimeStore materialisation does nearly all the work and LineageStore none; the snapshot cache is " +
			"smaller than the data, so hits and misses both run: the Fig 7 shape, control for any LineageStore change",
		opsPerSecond: 20,
		slo:          300 * time.Millisecond,
		mix:          func(*scriptGen, int) opKind { return kindSnapshot },
		classOrder:   []classShare{{classSnapshot, 100}},
		kinds:        []opKind{kindSnapshot},
		smallCache:   true,
	},
	{
		name: "ingest-commit",
		why: "the same stores on the write path: hostdb commit, synchronous TimeStore append, async LineageStore " +
			"cascade and policy snapshots, the Fig 9 shape; a read gain bought at ingest shows here and in bytes",
		opsPerSecond: 3_200,
		slo:          5 * time.Millisecond,
		mix:          func(_ *scriptGen, i int) opKind { return writeCycle[i%len(writeCycle)] },
		classOrder:   []classShare{{classWrite, 100}},
		kinds:        writeCycle[:],
	},
	{
		name: "mixed-serve",
		why: "the only workload with the bolt wire, Cypher parse and result encoding in the loop, reads beside " +
			"20 % writes with cascade and snapshot workers active: the Fig 13 shape",
		opsPerSecond: 7_600,
		slo:          5 * time.Millisecond,
		overBolt:     true,
		mix: func(g *scriptGen, i int) opKind {
			k := mixedScript[i%len(mixedScript)]
			if k == kindCreateNode {
				k = writeCycle[g.writes%int64(len(writeCycle))]
			}
			return k
		},
		classOrder: []classShare{{classCurrent, 10}, {classPoint, 50}, {classHistory, 20}, {classWrite, 20}},
		p50Class:   1,
		kinds: []opKind{kindNodeAsOf, kindRelAsOf, kindNodeHistory, kindCurrent,
			kindCreateNode, kindSetProp, kindCreateRel, kindDeleteRel},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sizing is the part of a run that tests shrink.
type sizing struct {
	scale int // datagen divisor of the DBLP preset
	batch int // bulk-load transaction size
	// snapshotEveryOps is the TimeStore's operation-based snapshot policy
	// (the paper's default kind): dense enough that the load leaves a dozen
	// snapshots and the write workloads trigger it while measured.
	snapshotEveryOps int
	// snapshotCacheBytes is snapshot-asof's GraphStore budget: room for the
	// snapshots of the newest quarter of history, which three in five reads
	// ask for, and little else.
	snapshotCacheBytes int64
}

// fullSize is what every reported run uses: DBLP/20 is 15 000 nodes and
// 105 000 relationships, 202 500 updates with the property history, loaded
// in 102 transactions.
var fullSize = sizing{scale: 20, batch: 2000, snapshotEveryOps: 16384, snapshotCacheBytes: 48 << 20}
