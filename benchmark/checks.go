package main

import (
	"context"
	"fmt"

	"aion/internal/graphstore"
	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/timestore"
)

// counters is one reading of the layers' own Stats accessors.
type counters struct {
	ts                 timestore.Stats
	lineage, timeStore int64 // planner decisions
	host               hostdb.Stats
}

func readCounters(st *store) counters {
	c := counters{ts: st.sys.Aion.TimeStore().Stats(), host: st.sys.Host.Stats()}
	c.lineage, c.timeStore = st.sys.Aion.PlannerDecisions()
	return c
}

// cacheWatch wraps a boundary and classifies every op as served from the
// GraphStore or not, from the store's own counters: an op missed when no
// cached snapshot lay at or before its timestamp (Misses moved) or when it
// had to load a snapshot file and cache it (Snapshots or Evictions moved).
// The store's Hits counter alone cannot tell: it also counts a cached floor
// that a newer snapshot file then supersedes.
type cacheWatch struct {
	inner  boundary
	gs     *graphstore.Store
	missed []bool // per op, in order
}

func (c *cacheWatch) do(o *op, p map[string]model.Value) (reply, error) {
	before := c.gs.Stats()
	r, err := c.inner.do(o, p)
	after := c.gs.Stats()
	c.missed = append(c.missed, after.Misses != before.Misses ||
		after.Snapshots != before.Snapshots || after.Evictions != before.Evictions)
	return r, err
}

// since returns the classifications from op index from on.
func (c *cacheWatch) since(from int) []bool { return c.missed[min(from, len(c.missed)):] }

// hitsIn counts the ops the cache served.
func hitsIn(missed []bool) int {
	hits := 0
	for _, m := range missed {
		if !m {
			hits++
		}
	}
	return hits
}

// snapshot-asof's cache hit share lands in the issue's 0.60-0.75 on the seed
// commit (0.64-0.72 on twenty seeds, standard deviation 0.026 with 400
// reads): both the cached and the uncached materialisation path run and the
// p50 sits well inside the hits (noise rule 4). The guard aborts 0.05 outside
// that band on either side, so that a seed's own randomness, two standard
// deviations from the upper edge, cannot fail a run of unchanged code.
const hitFracLow, hitFracHigh = 0.55, 0.80

// checkIsolation fails a run whose workload no longer isolates its layer:
// reporting numbers for a different mix than the name promises would be
// worse than reporting none.
func checkIsolation(w *workload, before, after counters, hitFrac float64) error {
	replayed := after.ts.ReplayedUpdates - before.ts.ReplayedUpdates
	lineage, timeStore := after.lineage-before.lineage, after.timeStore-before.timeStore
	switch w.name {
	case "point-history":
		if replayed != 0 || timeStore != 0 {
			return fmt.Errorf("isolation: point-history must not touch the TimeStore, but it replayed %d updates and the planner chose it %d times", replayed, timeStore)
		}
	case "snapshot-asof":
		if lineage != 0 {
			return fmt.Errorf("isolation: snapshot-asof must not touch the LineageStore, but the planner chose it %d times", lineage)
		}
		if hitFrac < hitFracLow || hitFrac > hitFracHigh {
			return fmt.Errorf("isolation: snapshot-asof graphstore.hit_frac %.3f left [%.2f, %.2f]: the cache no longer sits below the snapshot working set", hitFrac, hitFracLow, hitFracHigh)
		}
	}
	// One closed-loop committer with SyncCommits gets no group commit:
	// every commit pays its own strings fsync and log fsync.
	commits, fsyncs := after.host.Commits-before.host.Commits, after.host.Fsyncs-before.host.Fsyncs
	if fsyncs != 2*commits {
		return fmt.Errorf("isolation: %s made %d commits with %d fsyncs, want exactly 2 per commit", w.name, commits, fsyncs)
	}
	return nil
}

// checkDurable reads every acknowledged write back from a reopened store at
// its commit timestamp and returns how many are missing.
func checkDurable(st *store, ds *dataset, acked []op) (missing int, first string) {
	db := st.sys.Aion
	ctx := context.Background()
	relID := int64(ds.rels)
	var openRel int64
	for i := range acked {
		o := &acked[i]
		ts := model.Timestamp(o.want.start)
		ok := false
		switch o.kind {
		case kindCreateNode:
			ns, err := db.GetNodeContext(ctx, model.NodeID(o.want.id), ts, ts)
			ok = err == nil && len(ns) == 1 && int64(ns[0].Valid.Start) == o.want.start && ns[0].Props["k"].Int() == o.v
		case kindSetProp:
			ns, err := db.GetNodeContext(ctx, model.NodeID(o.id), ts, ts)
			ok = err == nil && len(ns) == 1 && int64(ns[0].Valid.Start) == o.want.start && ns[0].Props["w"].Int() == o.v
		case kindCreateRel:
			openRel = relID
			relID++
			rs, err := db.GetRelationshipContext(ctx, model.RelID(openRel), ts, ts)
			ok = err == nil && len(rs) == 1 && int64(rs[0].Src) == o.id && int64(rs[0].Tgt) == o.id2
		case kindDeleteRel:
			was, err := db.GetRelationshipContext(ctx, model.RelID(openRel), ts-1, ts-1)
			now, err2 := db.GetRelationshipContext(ctx, model.RelID(openRel), ts, ts)
			ok = err == nil && err2 == nil && len(was) == 1 && len(now) == 0
		}
		if !ok {
			if missing++; first == "" {
				first = fmt.Sprintf("durability: acknowledged %s at commit %d did not read back after reopen", queries[o.kind], ts)
			}
		}
	}
	return missing, first
}
