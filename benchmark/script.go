package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"

	"aion/internal/model"
)

// opKind is one statement shape of the scripts.
type opKind uint8

const (
	kindNodeAsOf opKind = iota
	kindRelAsOf
	kindNodeHistory
	kindExpand1
	kindSnapshot
	kindCurrent
	kindCreateNode
	kindSetProp
	kindCreateRel
	kindDeleteRel
	numKinds
)

// queries are the fixed statement texts; everything that varies is a
// parameter, so the parser sees the same ten strings throughout.
var queries = [numKinds]string{
	kindNodeAsOf:    `USE GDB FOR SYSTEM_TIME AS OF $ts MATCH (n) WHERE id(n) = $id RETURN n`,
	kindRelAsOf:     `CALL aion.relationship($id, $ts, $ts)`,
	kindNodeHistory: `USE GDB FOR SYSTEM_TIME FROM $ts TO $ts2 MATCH (n) WHERE id(n) = $id RETURN n`,
	kindExpand1:     `CALL aion.relationships($id, 'out', $ts, $ts)`,
	kindSnapshot:    `USE GDB FOR SYSTEM_TIME AS OF $ts MATCH (n) RETURN count(*)`,
	kindCurrent:     `MATCH (n) WHERE id(n) = $id RETURN n`,
	kindCreateNode:  `CREATE (n:Bench {k: $v}) RETURN id(n)`,
	kindSetProp:     `MATCH (n) WHERE id(n) = $id SET n.w = $v`,
	kindCreateRel:   `MATCH (a), (b) WHERE id(a) = $id AND id(b) = $id2 CREATE (a)-[:BENCH]->(b)`,
	kindDeleteRel:   `MATCH (a)-[r]->(b) WHERE id(a) = $id DELETE r`,
}

// snapshotRecent is snapshot-asof's repeating script: which reads ask for
// the newest quarter of history.
var snapshotRecent = [5]bool{true, false, true, true, false}

// opClass groups kinds into the classes the metrics name.
type opClass uint8

const (
	classPoint opClass = iota
	classHistory
	classExpand1
	classSnapshot
	classCurrent
	classWrite
	numClasses
)

var classNames = [numClasses]string{"point", "history", "expand1", "snapshot", "current", "write"}

var classOf = [numKinds]opClass{
	kindNodeAsOf:    classPoint,
	kindRelAsOf:     classPoint,
	kindNodeHistory: classHistory,
	kindExpand1:     classExpand1,
	kindSnapshot:    classSnapshot,
	kindCurrent:     classCurrent,
	kindCreateNode:  classWrite,
	kindSetProp:     classWrite,
	kindCreateRel:   classWrite,
	kindDeleteRel:   classWrite,
}

func (k opKind) isWrite() bool { return classOf[k] == classWrite }

// reply is what the oracle predicts and what a boundary's answer is reduced
// to; an op is correct when the two are equal.
type reply struct {
	rows  int   // result rows
	id    int64 // entity id in the first row, or the id a CREATE allocated
	start int64 // first row's valid-from, or a write's commit timestamp
	props int   // property count of the first row's entity
	val   int64 // newest property's value, count(*), or a write's counter
}

// op is one scripted statement with its precomputed answer.
type op struct {
	kind    opKind
	id, id2 int64
	ts, ts2 int64
	v       int64
	want    reply
}

// setTargets bounds the dataset nodes the write ops SET a property on, so
// each is hit repeatedly and its LineageStore delta chain reaches the
// materialisation threshold. Current-state reads use the nodes above it,
// whose state the writes never change.
func (ds *dataset) setTargets() int64 { return int64(min(512, ds.nodes/2)) }

// scriptGen produces a workload's ops in order from one seeded source. The
// same seed yields the same ops and the same digest.
type scriptGen struct {
	ds     *dataset
	rng    *rand.Rand
	mix    func(g *scriptGen, i int) opKind
	only   func(opKind) bool // when set, kinds it rejects are skipped
	n      int               // mix positions consumed so far
	digest hash.Hash64

	// write-side state mirrored from what the host will allocate
	writes    int64 // acknowledged-write sequence
	newNodes  int64
	openNode  int64 // newest created node, endpoint of the next rel
	openRelTo int64
}

func newScriptGen(ds *dataset, seed int64, mix func(g *scriptGen, i int) opKind) *scriptGen {
	return &scriptGen{ds: ds, rng: rand.New(rand.NewSource(seed)), mix: mix, digest: fnv.New64a()}
}

// fill generates the next len(buf) ops into buf.
func (g *scriptGen) fill(buf []op) {
	for i := range buf {
		buf[i] = g.next()
	}
}

func (g *scriptGen) next() op {
	o := op{kind: g.mix(g, g.n)}
	for g.n++; g.only != nil && !g.only(o.kind); g.n++ {
		o.kind = g.mix(g, g.n)
	}
	or := g.ds.oracle
	// Reads target an entity at a moment it exists, so every op of a class
	// does the same kind of work and the class medians sit on flat parts
	// of their latency distributions.
	tsFrom := func(first int64) int64 { return first + g.rng.Int63n(or.lastTS-first+1) }
	switch o.kind {
	case kindNodeAsOf:
		o.id = g.rng.Int63n(int64(g.ds.nodes))
		o.ts = tsFrom(or.nodeVers[o.id][0])
		o.want = nodeAnswer(o.id, or.nodeVers[o.id], o.ts)
	case kindRelAsOf:
		o.id = g.rng.Int63n(int64(g.ds.rels))
		o.ts = tsFrom(or.relVers[o.id][0])
		o.want = relAnswer(o.id, or.relVers[o.id], o.ts)
	case kindNodeHistory:
		// FROM a TO b is the open interval (a, b), served as [a+1, b).
		o.id = g.rng.Int63n(int64(g.ds.nodes))
		vers := or.nodeVers[o.id]
		o.ts = tsFrom(vers[0]) - 1
		o.ts2 = min(o.ts+2+g.rng.Int63n(max(1, or.lastTS/2)), or.lastTS+1)
		first := nodeAnswer(o.id, vers, o.ts+1)
		first.rows = versionsIn(vers, o.ts+1, o.ts2)
		o.want = first
	case kindExpand1:
		o.id = g.rng.Int63n(int64(g.ds.nodes))
		o.ts = tsFrom(or.nodeVers[o.id][0])
		o.want.rows = or.outDegreeAt(o.id, o.ts)
	case kindSnapshot:
		// Recent history is asked for more often than old: three reads in
		// every five fall in the newest quarter of the timeline, which the
		// cache can hold, and two anywhere, which it cannot. The positions
		// are fixed, so every seed asks for the same mix.
		o.ts = tsFrom(1)
		if snapshotRecent[g.n%len(snapshotRecent)] {
			o.ts = tsFrom(or.recentFrom())
		}
		o.want = reply{rows: 1, val: or.nodesAt[o.ts]}
	case kindCurrent:
		o.id = g.ds.setTargets() + g.rng.Int63n(int64(g.ds.nodes)-g.ds.setTargets())
		o.want = nodeAnswer(o.id, or.nodeVers[o.id], or.lastTS)
		o.want.start = 0 // the host's current graph carries no validity
	case kindCreateNode:
		o.v = g.writes
		g.openNode = int64(g.ds.nodes) + g.newNodes
		g.newNodes++
		o.want = reply{rows: 1, id: g.openNode, val: 1}
	case kindSetProp:
		o.id, o.v = g.writes%g.ds.setTargets(), g.writes
		o.want = reply{val: 1}
	case kindCreateRel:
		o.id, o.id2 = g.openNode, g.rng.Int63n(int64(g.ds.nodes))
		g.openRelTo = o.id2
		o.want = reply{val: 1}
	case kindDeleteRel:
		o.id, o.id2 = g.openNode, g.openRelTo
		o.want = reply{val: 1}
	}
	if o.kind.isWrite() {
		g.writes++
		o.want.start = or.lastTS + g.writes // one commit per write, in order
	}
	var rec [10 * 8]byte
	for i, f := range [...]int64{int64(o.kind), o.id, o.id2, o.ts, o.ts2, o.v,
		int64(o.want.rows), o.want.id, o.want.start, int64(o.want.props)<<32 ^ o.want.val} {
		binary.LittleEndian.PutUint64(rec[i*8:], uint64(f))
	}
	g.digest.Write(rec[:])
	return o
}

// recentFrom is the first timestamp of the newest quarter of the loaded
// history.
func (o *oracle) recentFrom() int64 { return o.lastTS - o.lastTS/4 + 1 }

// newestQuarter is one snapshot read at every timestamp of the newest
// quarter, oldest first.
func (ds *dataset) newestQuarter() []op {
	var ops []op
	for ts := ds.oracle.recentFrom(); ts <= ds.oracle.lastTS; ts++ {
		ops = append(ops, op{kind: kindSnapshot, ts: ts, want: reply{rows: 1, val: ds.oracle.nodesAt[ts]}})
	}
	return ops
}

// nodeAnswer predicts the row of a node read at ts: version k of a node
// carries the k properties p0..p(k-1) of the load's SET rounds.
func nodeAnswer(id int64, vers []int64, ts int64) reply {
	k := versionAt(vers, ts)
	if k < 0 {
		return reply{}
	}
	r := reply{rows: 1, id: id, start: vers[k], props: k}
	if k > 0 {
		r.val = nodePropVal(id, k-1)
	}
	return r
}

// relAnswer predicts the row of a relationship read at ts: version 1, where
// it exists, carries the one property of the relationship round.
func relAnswer(id int64, vers []int64, ts int64) reply {
	k := versionAt(vers, ts)
	if k < 0 {
		return reply{}
	}
	return reply{rows: 1, id: id, start: vers[k], props: k, val: int64(k)}
}

// nodeReply reduces a returned node (and its row count) to a reply.
func nodeReply(rows int, n *model.Node) reply {
	r := reply{rows: rows}
	if n == nil {
		return r
	}
	r.id, r.start, r.props = int64(n.ID), int64(n.Valid.Start), len(n.Props)
	if r.props > 0 && r.props <= nodePropRounds {
		r.val = n.Props[nodePropKeys[r.props-1]].Int()
	}
	return r
}

// relReply reduces a returned relationship to a reply; val is 1 only when
// the relationship round's property reads back intact.
func relReply(rows int, rel *model.Rel) reply {
	r := reply{rows: rows}
	if rel == nil {
		return r
	}
	r.id, r.start, r.props = int64(rel.ID), int64(rel.Valid.Start), len(rel.Props)
	if rel.Props["w"].Str() == relPropValue {
		r.val = 1
	}
	return r
}

// params refills the reusable parameter map with what the op's statement
// names.
func (o *op) params(p map[string]model.Value) map[string]model.Value {
	clear(p)
	switch o.kind {
	case kindNodeAsOf, kindRelAsOf, kindExpand1:
		p["id"], p["ts"] = model.IntValue(o.id), model.IntValue(o.ts)
	case kindNodeHistory:
		p["id"], p["ts"], p["ts2"] = model.IntValue(o.id), model.IntValue(o.ts), model.IntValue(o.ts2)
	case kindSnapshot:
		p["ts"] = model.IntValue(o.ts)
	case kindCurrent, kindDeleteRel:
		p["id"] = model.IntValue(o.id)
	case kindCreateNode:
		p["v"] = model.IntValue(o.v)
	case kindSetProp:
		p["id"], p["v"] = model.IntValue(o.id), model.IntValue(o.v)
	case kindCreateRel:
		p["id"], p["id2"] = model.IntValue(o.id), model.IntValue(o.id2)
	}
	return p
}
