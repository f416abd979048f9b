// Delta-chain compaction and materialization for sealed partitions
// (DeltaGraph-style hierarchical delta snapshots, PAPERS.md arXiv:1207.5777).
// A sealed partition's log is replayed once and cut into segments at
// timestamp boundaries; each cut emits a chain element — every
// DeltaChainLength-th a full materialization, otherwise a *differential*
// snapshot holding the segment's updates compacted to their net effect.
// GetGraph(ts) inside the partition then loads the nearest full and applies
// at most DeltaChainLength deltas plus a bounded log tail, instead of
// replaying from a distant snapshot.
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

// compactPartition replays p's log once on top of the partition's entry
// state (which it takes ownership of and mutates into the end state,
// returned), writing the full/delta chain as it goes and installing it
// under sealMu when complete. The log and marker are cross-checked: the
// replay must end exactly at the marker's end position.
func (s *Store) compactPartition(ctx context.Context, p *sealedPart, entry *memgraph.Graph) (*memgraph.Graph, error) {
	segs := 2 * (s.opts.DeltaChainLength + 1)
	if s.opts.DeltaChainLength < 0 {
		segs = 2 // fulls only
	}
	segTarget := int(p.count) / segs
	if segTarget < 1 {
		segTarget = 1
	}
	var elems []chainElem
	entryPos := position{ts: p.entryTS, seq: p.entrySeq}
	g := entry
	// chain[0] is the entry full: the state *before* the partition's first
	// update. It shares its position with the previous partition's end, so
	// a materialization never needs to cross partitions.
	if err := s.appendChainElem(p, &elems, enc.DeltaFull, entryPos, position{}, 0, g.Export()); err != nil {
		return nil, err
	}
	prev := entryPos
	cur := entryPos
	deltas := 0
	var seg []model.Update
	cut := func(pos position, off int64) error {
		if s.opts.DeltaChainLength < 0 || deltas >= s.opts.DeltaChainLength {
			if err := s.appendChainElem(p, &elems, enc.DeltaFull, pos, position{}, off, g.Export()); err != nil {
				return err
			}
			deltas = 0
		} else {
			if err := s.appendChainElem(p, &elems, enc.DeltaDiff, pos, prev, off, compactUpdates(seg)); err != nil {
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
		// its timestamp, so ts-only floor searches are exact.
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
	endPos := position{ts: p.maxTS, seq: p.endSeq}
	if cur != endPos {
		return nil, fmt.Errorf("timestore: partition %s log ends at (%d,%d), marker says (%d,%d)",
			p.dir, cur.ts, cur.seq, endPos.ts, endPos.seq)
	}
	if prev != endPos {
		if err := cut(endPos, p.log.Size()); err != nil {
			return nil, err
		}
	}
	g.SetTimestamp(p.maxTS)
	s.sealMu.Lock()
	p.chain = elems
	s.sealMu.Unlock()
	return g, nil
}

// appendChainElem publishes one chain file — frame 0 is the delta header,
// frames 1..Count are update records — and records its element.
func (s *Store) appendChainElem(p *sealedPart, elems *[]chainElem, kind enc.DeltaKind, pos, base position, logOff int64, us []model.Update) error {
	hdr := enc.DeltaHeader{
		Kind: kind, TS: pos.ts, Seq: pos.seq,
		BaseTS: base.ts, BaseSeq: base.seq,
		LogOff: logOff, Count: uint64(len(us)),
	}
	path := filepath.Join(p.dir, chainFileName(kind, pos))
	n, err := s.publishFrameFile(path, enc.AppendDeltaHeader(nil, hdr), us)
	if err != nil {
		return err
	}
	s.chainBytes.Add(n)
	if kind == enc.DeltaDiff {
		s.deltaSnaps.Add(1)
	}
	*elems = append(*elems, chainElem{
		kind: kind, pos: pos, base: base,
		logOff: logOff, count: hdr.Count, path: path,
	})
	return nil
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

// materializeElem returns a private graph at chain element j of p: the
// cached graph at that timestamp if present, else the nearest preceding
// full plus its deltas, cached in the GraphStore for the next reader.
// Caller holds sealMu (either mode); every cut position is complete at its
// timestamp, so the cache key carries no sequence ambiguity.
func (s *Store) materializeElem(ctx context.Context, p *sealedPart, j int) (*memgraph.Graph, error) {
	elem := p.chain[j]
	if g, ok := s.gs.Get(elem.pos.ts); ok {
		return g, nil
	}
	j0 := j
	//aionlint:ignore ctxloop backward walk is bounded by DeltaChainLength steps and does no I/O
	for p.chain[j0].kind != enc.DeltaFull {
		j0--
	}
	g := memgraph.New()
	if err := s.applyChainFile(ctx, p.chain[j0], g, false); err != nil {
		return nil, err
	}
	for k := j0 + 1; k <= j; k++ {
		if err := s.applyChainFile(ctx, p.chain[k], g, true); err != nil {
			return nil, err
		}
	}
	g.SetTimestamp(elem.pos.ts)
	s.gs.Put(g)
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
