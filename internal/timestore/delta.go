// Chain elements: writing, loading, and the compaction of a sealed
// segment's chain (DeltaGraph-style hierarchical delta snapshots, PAPERS.md
// arXiv:1207.5777). A sealed segment's log is replayed once and cut at
// timestamp boundaries; each cut emits a chain element — every
// DeltaChainLength-th a full materialization, otherwise a *differential*
// snapshot holding the updates since the previous cut compacted to their
// net effect. GetGraph(ts) inside the segment then loads the nearest full
// and applies at most DeltaChainLength deltas plus a bounded log tail,
// instead of replaying from a distant snapshot.
package timestore

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/vfs"
)

// compactPartition replays sealed segment p's log once on top of its entry
// state (which it takes ownership of and mutates into the end state,
// returned), writing the full/delta chain as it goes and installing it when
// complete. The log and marker are cross-checked: the replay must end
// exactly at the marker's end position.
func (s *Store) compactPartition(ctx context.Context, p *segment, entry *memgraph.Graph) (*memgraph.Graph, error) {
	segs := 2 * (s.opts.DeltaChainLength + 1)
	if s.opts.DeltaChainLength < 0 {
		segs = 2 // fulls only
	}
	segTarget := int(p.count) / segs
	if segTarget < 1 {
		segTarget = 1
	}
	var elems []chainElem
	g := entry
	emit := func(kind enc.DeltaKind, pos, base position, off int64, us []model.Update) error {
		e, err := s.writeChainElem(p, kind, pos, base, off, us)
		if err == nil {
			elems = append(elems, e)
		}
		return err
	}
	// chain[0] is the entry full: the state *before* the segment's first
	// update. It shares its position with the previous segment's end, so a
	// materialization never needs to cross segments.
	if err := emit(enc.DeltaFull, p.entry, position{}, 0, g.Export()); err != nil {
		return nil, err
	}
	prev := p.entry
	cur := p.entry
	deltas := 0
	var seg []model.Update
	cut := func(pos position, off int64) error {
		if s.opts.DeltaChainLength < 0 || deltas >= s.opts.DeltaChainLength {
			if err := emit(enc.DeltaFull, pos, position{}, off, g.Export()); err != nil {
				return err
			}
			deltas = 0
		} else {
			if err := emit(enc.DeltaDiff, pos, prev, off, compactUpdates(seg)); err != nil {
				return err
			}
			deltas++
		}
		prev = pos
		seg = seg[:0]
		return nil
	}
	var derr error
	err := s.replayWal(ctx, p.log, 1, 0, func(off int64, u model.Update) bool {
		// Cut only at timestamp boundaries: every element is complete at
		// its timestamp, so a sealed element's graph can always be cached.
		if len(seg) >= segTarget && u.TS > cur.ts {
			if derr = cut(cur, off); derr != nil {
				return false
			}
		}
		if aerr := g.Apply(u); aerr != nil {
			derr = aerr
			return false
		}
		cur = cur.next(u.TS)
		seg = append(seg, u)
		return true
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}
	endPos := p.end()
	if cur != endPos {
		return nil, fmt.Errorf("timestore: segment %s log ends at (%d,%d), marker says (%d,%d)",
			p.dir, cur.ts, cur.seq, endPos.ts, endPos.seq)
	}
	if prev != endPos {
		if err := cut(endPos, p.log.Size()); err != nil {
			return nil, err
		}
	}
	g.SetTimestamp(p.maxTS)
	p.mu.Lock()
	p.chain = elems
	p.mu.Unlock()
	return g, nil
}

// writeChainElem publishes one element file in g's directory — frame 0 is
// the delta header, frames 1..Count are update records — and returns its
// catalogue entry for the caller to place.
func (s *Store) writeChainElem(g *segment, kind enc.DeltaKind, pos, base position, logOff int64, us []model.Update) (chainElem, error) {
	hdr := enc.DeltaHeader{
		Kind: kind, TS: pos.ts, Seq: pos.seq,
		BaseTS: base.ts, BaseSeq: base.seq,
		LogOff: logOff, Count: uint64(len(us)),
	}
	path := filepath.Join(g.dir, chainFileName(kind, pos))
	n, err := s.publishFrameFile(path, enc.AppendDeltaHeader(nil, hdr), us)
	if err != nil {
		return chainElem{}, err
	}
	return chainElem{
		kind: kind, pos: pos, base: base,
		logOff: logOff, count: hdr.Count, path: path, size: n,
	}, nil
}

// readChainHeader reads and validates only frame 0 of a chain file (cheap:
// recovery derivation opens every chain file this way).
func readChainHeader(fs vfs.FS, path string) (hdr enc.DeltaHeader, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return hdr, err
	}
	defer vfs.CloseChecked(f, &err)
	fr, err := newFrameReader(f, path, 512)
	if err != nil {
		return hdr, err
	}
	payload, err := fr.readFrame()
	if err != nil {
		return hdr, err
	}
	return enc.DecodeDeltaHeader(payload)
}

// applyChainFile streams elem's update records into g. countReplay marks
// delta applications (materialization work the chain could not avoid) for
// the ReplayedUpdates stat; full loads are snapshot loads, not replay.
func (s *Store) applyChainFile(ctx context.Context, elem chainElem, g *memgraph.Graph, countReplay bool) error {
	var applied uint64
	err := s.readFrameFile(ctx, elem.path,
		func(payload []byte) error {
			hdr, err := enc.DecodeDeltaHeader(payload)
			if err != nil {
				return err
			}
			if hdr.Kind != elem.kind || hdr.TS != elem.pos.ts || hdr.Seq != elem.pos.seq || hdr.Count != elem.count {
				return fmt.Errorf("timestore: chain file %s header changed since derivation", elem.path)
			}
			return nil
		},
		func(us []model.Update) error {
			if err := g.ApplyAll(us); err != nil {
				return fmt.Errorf("timestore: chain apply %s: %w", elem.path, err)
			}
			applied += uint64(len(us))
			if countReplay {
				s.replayed.Add(uint64(len(us)))
			}
			return nil
		})
	if err == nil && applied != elem.count {
		err = fmt.Errorf("timestore: chain file %s holds %d records, header says %d", elem.path, applied, elem.count)
	}
	return err
}

// loadElem builds a private graph at chain[j] from the element files alone:
// the nearest full at or before j, then every delta up to j.
func (s *Store) loadElem(ctx context.Context, chain []chainElem, j int) (*memgraph.Graph, error) {
	j0 := j
	//aionlint:ignore ctxloop backward walk is bounded by DeltaChainLength steps and does no I/O
	for chain[j0].kind != enc.DeltaFull {
		j0--
	}
	g := memgraph.New()
	for k := j0; k <= j; k++ {
		if err := s.applyChainFile(ctx, chain[k], g, k > j0); err != nil {
			return nil, err
		}
	}
	g.SetTimestamp(chain[j].pos.ts)
	return g, nil
}

// materializeElem is loadElem for a query: the graph is also cached in the
// GraphStore for the next reader when it is complete at its timestamp (the
// cache key carries no sequence). A sealed segment's elements always are —
// compaction cuts only at timestamp boundaries — while an eager snapshot in
// the active segment may sit mid-timestamp: it is complete only if no
// record past it carries its timestamp. Caller holds sealMu (either mode).
func (s *Store) materializeElem(ctx context.Context, seg *segment, chain []chainElem, j int) (*memgraph.Graph, error) {
	g, err := s.loadElem(ctx, chain, j)
	if err != nil {
		return nil, err
	}
	pos, complete := chain[j].pos, true
	if !seg.sealed {
		err = s.scanSegment(ctx, seg, 1, pos, pos.ts+1, func(model.Update) bool {
			complete = false
			return false
		})
		if err != nil {
			return nil, err
		}
	}
	if complete {
		s.gs.Put(g) // caches a CoW clone; g itself stays the caller's
	}
	return g, nil
}

// --- segment compaction ------------------------------------------------------

// entAcc folds one entity's updates within a segment to their net effect.
// At most one of each pointer survives: del (a pre-existing entity deleted
// in the segment), add (an entity created — or deleted-and-recreated — in
// the segment, with later updates merged in), upd (a pre-existing entity
// modified). del+add together encode delete-then-recreate.
type entAcc struct {
	del *model.Update
	add *model.Update
	upd *model.Update
}

// compactUpdates reduces a segment's update stream to its net effect: the
// minimal-ish update list that transforms the segment's entry graph into
// its end graph through memgraph.Apply. Emission is phased — rel deletes,
// node deletes, node adds/updates, rel adds/updates, each sorted by entity
// ID — which satisfies Apply's referential constraints (a node is deleted
// only after its rels, a rel added only after its endpoints).
func compactUpdates(us []model.Update) []model.Update {
	accs := map[int64]*entAcc{}
	for _, u := range us {
		k := u.EntityKey()
		a := accs[k]
		if a == nil {
			a = &entAcc{}
			accs[k] = a
		}
		switch u.Kind {
		case model.OpAddNode, model.OpAddRel:
			c := cloneUpdate(u)
			a.add = &c
		case model.OpUpdateNode, model.OpUpdateRel:
			switch {
			case a.add != nil:
				mergeIntoAdd(a.add, u)
			case a.upd != nil:
				mergeUpdates(a.upd, u)
			default:
				c := cloneUpdate(u)
				a.upd = &c
			}
		case model.OpDeleteNode, model.OpDeleteRel:
			if a.add != nil {
				a.add = nil // created and destroyed within the segment
			} else {
				a.upd = nil
				c := cloneUpdate(u)
				a.del = &c
			}
		}
	}
	var relDel, nodeDel, nodes, rels []model.Update
	route := func(u *model.Update) {
		if u == nil {
			return
		}
		u.Normalize()
		if u.Kind.IsNodeOp() {
			nodes = append(nodes, *u)
		} else {
			rels = append(rels, *u)
		}
	}
	for _, a := range accs {
		if a.del != nil {
			if a.del.Kind.IsNodeOp() {
				nodeDel = append(nodeDel, *a.del)
			} else {
				relDel = append(relDel, *a.del)
			}
		}
		route(a.add)
		route(a.upd)
	}
	sort.Slice(relDel, func(i, j int) bool { return relDel[i].RelID < relDel[j].RelID })
	sort.Slice(nodeDel, func(i, j int) bool { return nodeDel[i].NodeID < nodeDel[j].NodeID })
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].NodeID < nodes[j].NodeID })
	sort.Slice(rels, func(i, j int) bool { return rels[i].RelID < rels[j].RelID })
	out := make([]model.Update, 0, len(relDel)+len(nodeDel)+len(nodes)+len(rels))
	out = append(out, relDel...)
	out = append(out, nodeDel...)
	out = append(out, nodes...)
	return append(out, rels...)
}

// cloneUpdate deep-copies the slices and map so merging never aliases the
// caller's updates.
func cloneUpdate(u model.Update) model.Update {
	c := u
	c.AddLabels = append([]string(nil), u.AddLabels...)
	c.DelLabels = append([]string(nil), u.DelLabels...)
	c.DelProps = append([]string(nil), u.DelProps...)
	if u.SetProps != nil {
		c.SetProps = make(model.Properties, len(u.SetProps))
		for k, v := range u.SetProps {
			c.SetProps[k] = v
		}
	}
	return c
}

// mergeIntoAdd folds a later update b into a pending add: the add's labels
// and props become the post-b state (Apply's order within one update is
// del-labels-then-add-labels and set-props-then-del-props, so b's deletes
// strike a's adds first, then b's own adds/sets land).
func mergeIntoAdd(add *model.Update, b model.Update) {
	add.AddLabels = append(minusStrs(add.AddLabels, b.DelLabels), b.AddLabels...)
	add.SetProps = mergeProps(add.SetProps, b.SetProps, b.DelProps)
}

// mergeUpdates folds update b into update a so that applying the merged
// update equals applying a then b:
//
//	labels: del = aDel ∪ bDel;  add = (aAdd − bDel) ∪ bAdd
//	props:  set = (aSet − bDel) overlaid by bSet;  del = (aDel − keys(bSet)) ∪ bDel
func mergeUpdates(a *model.Update, b model.Update) {
	a.AddLabels = append(minusStrs(a.AddLabels, b.DelLabels), b.AddLabels...)
	a.DelLabels = append(a.DelLabels, b.DelLabels...)
	a.SetProps = mergeProps(a.SetProps, b.SetProps, b.DelProps)
	keep := a.DelProps[:0]
	for _, k := range a.DelProps {
		if _, set := b.SetProps[k]; !set {
			keep = append(keep, k)
		}
	}
	a.DelProps = append(keep, b.DelProps...)
	a.TS = b.TS
}

// minusStrs returns a without any element of del (order preserved).
func minusStrs(a, del []string) []string {
	if len(del) == 0 || len(a) == 0 {
		return a
	}
	out := a[:0]
	for _, s := range a {
		drop := false
		for _, d := range del {
			if s == d {
				drop = true
				break
			}
		}
		if !drop {
			out = append(out, s)
		}
	}
	return out
}

// mergeProps applies (set bSet, del bDel) on top of base, returning the
// surviving set map.
func mergeProps(base, bSet model.Properties, bDel []string) model.Properties {
	if base == nil && bSet == nil {
		return nil
	}
	out := base
	if out == nil {
		out = model.Properties{}
	}
	for _, k := range bDel {
		delete(out, k)
	}
	for k, v := range bSet {
		out[k] = v
	}
	return out
}
