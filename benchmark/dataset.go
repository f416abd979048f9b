package main

import (
	"fmt"
	"sort"

	"aion/internal/datagen"
	"aion/internal/hostdb"
	"aion/internal/model"
)

// relPropValue is the payload of the relationship property round; a string
// gives materialized records the weight datagen.PropertyUpdateChain uses.
const relPropValue = "value-0-of-property-chain"

// nodePropRounds is how many property SET rounds touch every node.
const nodePropRounds = 2

// dataset is the generated update stream every workload loads, plus the
// reference model the result oracle answers from.
type dataset struct {
	nodes, rels int
	// batch is the bulk-load transaction size. Every update of one
	// transaction carries the transaction's commit timestamp, so the load
	// produces len(updates)/batch distinct timestamps.
	batch   int
	updates []model.Update
	oracle  *oracle
}

// nodePropKeys and nodePropVal define the property round r writes on node id.
var nodePropKeys = [nodePropRounds]string{"p0", "p1"}

func nodePropVal(id int64, round int) int64 { return id*nodePropRounds + int64(round) }

// genDataset builds the datagen DBLP preset at the given scale and appends
// the property-update history: nodePropRounds SET rounds on every node and
// one on every second relationship.
func genDataset(seed int64, scale, batch int) (*dataset, error) {
	g := datagen.Generate(datagen.MustPreset("DBLP", scale), datagen.Options{Seed: seed})
	ds := &dataset{nodes: g.Spec.Nodes, rels: len(g.RelIDs), batch: batch}
	us := g.Updates
	for round := 0; round < nodePropRounds; round++ {
		key := nodePropKeys[round]
		for id := 0; id < ds.nodes; id++ {
			us = append(us, model.UpdateNode(0, model.NodeID(id), nil, nil,
				model.Properties{key: model.IntValue(nodePropVal(int64(id), round))}, nil))
		}
	}
	ends := make([][2]model.NodeID, ds.rels)
	for _, u := range g.Updates {
		if u.Kind == model.OpAddRel {
			ends[u.RelID] = [2]model.NodeID{u.Src, u.Tgt}
		}
	}
	for rid := 0; rid < ds.rels; rid += 2 {
		us = append(us, model.UpdateRel(0, model.RelID(rid), ends[rid][0], ends[rid][1],
			model.Properties{"w": model.StringValue(relPropValue)}, nil))
	}
	ds.updates = us
	var err error
	ds.oracle, err = newOracle(ds)
	return ds, err
}

// loadCommits is the number of bulk-load transactions, which is also the
// last commit timestamp of the loaded history.
func (ds *dataset) loadCommits() int {
	return (len(ds.updates) + ds.batch - 1) / ds.batch
}

// load replays the update stream through host transactions of ds.batch
// updates and checks the host stamped them 1, 2, 3, ... as the oracle
// assumes.
func (ds *dataset) load(host *hostdb.DB) error {
	want := model.Timestamp(0)
	for lo := 0; lo < len(ds.updates); lo += ds.batch {
		hi := min(lo+ds.batch, len(ds.updates))
		batch := ds.updates[lo:hi]
		ts, err := host.Run(func(tx *hostdb.Tx) error {
			for _, u := range batch {
				if err := applyToTx(tx, u); err != nil {
					return fmt.Errorf("%v: %w", u, err)
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("bulk load at update %d: %w", lo, err)
		}
		if want++; ts != want {
			return fmt.Errorf("bulk load: commit %d stamped %d", want, ts)
		}
	}
	return nil
}

func applyToTx(tx *hostdb.Tx, u model.Update) error {
	switch u.Kind {
	case model.OpAddNode:
		return tx.CreateNodeWithID(u.NodeID, u.AddLabels, u.SetProps)
	case model.OpAddRel:
		return tx.CreateRelWithID(u.RelID, u.Src, u.Tgt, u.RelLabel, u.SetProps)
	case model.OpUpdateNode:
		return tx.SetNodeProps(u.NodeID, u.SetProps, u.DelProps)
	case model.OpUpdateRel:
		return tx.SetRelProps(u.RelID, u.SetProps, u.DelProps)
	}
	return fmt.Errorf("unexpected %v in the load stream", u.Kind)
}

// oracle is the brute-force reference model of the loaded history: for
// every entity the commit timestamps at which a new version starts, and per
// timestamp the node count. Answers are computed from it, never from Aion.
type oracle struct {
	lastTS   int64
	nodeVers [][]int64 // per node: version start timestamps, creation first
	relVers  [][]int64 // per relationship
	outTS    [][]int64 // per node: sorted creation timestamps of outgoing rels
	nodesAt  []int64   // nodesAt[ts] = nodes alive at commit timestamp ts
}

func newOracle(ds *dataset) (*oracle, error) {
	o := &oracle{
		lastTS:   int64(ds.loadCommits()),
		nodeVers: make([][]int64, ds.nodes),
		relVers:  make([][]int64, ds.rels),
		outTS:    make([][]int64, ds.nodes),
	}
	o.nodesAt = make([]int64, o.lastTS+1)
	for i, u := range ds.updates {
		ts := int64(i/ds.batch + 1)
		switch u.Kind {
		case model.OpAddNode:
			o.nodeVers[u.NodeID] = append(o.nodeVers[u.NodeID], ts)
			o.nodesAt[ts]++
		case model.OpUpdateNode:
			o.nodeVers[u.NodeID] = append(o.nodeVers[u.NodeID], ts)
		case model.OpAddRel:
			o.relVers[u.RelID] = append(o.relVers[u.RelID], ts)
			o.outTS[u.Src] = append(o.outTS[u.Src], ts)
		case model.OpUpdateRel:
			o.relVers[u.RelID] = append(o.relVers[u.RelID], ts)
		}
	}
	for ts := int64(1); ts <= o.lastTS; ts++ {
		o.nodesAt[ts] += o.nodesAt[ts-1]
	}
	// The LineageStore keys a version by (entity, commit timestamp): two
	// changes of one entity in one load transaction would collapse.
	for _, all := range [][][]int64{o.nodeVers, o.relVers} {
		for id, vers := range all {
			for i := 1; i < len(vers); i++ {
				if vers[i] == vers[i-1] {
					return nil, fmt.Errorf("dataset: entity %d changes twice in load transaction %d; lower the batch size", id, vers[i])
				}
			}
		}
	}
	return o, nil
}

// versionAt returns the index of the version valid at ts, or -1 when the
// entity does not exist yet.
func versionAt(vers []int64, ts int64) int {
	return sort.Search(len(vers), func(i int) bool { return vers[i] > ts }) - 1
}

// versionsIn counts the versions whose validity overlaps [start, end).
func versionsIn(vers []int64, start, end int64) int {
	n := 0
	for i, s := range vers {
		e := int64(model.TSInfinity)
		if i+1 < len(vers) {
			e = vers[i+1]
		}
		if s < end && start < e {
			n++
		}
	}
	return n
}

// outDegreeAt counts a node's outgoing relationships alive at ts (the load
// stream deletes nothing).
func (o *oracle) outDegreeAt(id, ts int64) int {
	out := o.outTS[id]
	return sort.Search(len(out), func(i int) bool { return out[i] > ts })
}
