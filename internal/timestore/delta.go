// Chain elements: writing, loading, and the compaction of a sealed
// segment's chain (DeltaGraph-style hierarchical delta snapshots, PAPERS.md
// arXiv:1207.5777). Every chain, active or sealed, is fulls with up to
// DeltaChainLength *differential* snapshots between them, each holding the
// updates since the previous element compacted to their net effect. The
// active chain grows one policy snapshot at a time (persistSnapshot); a
// sealed segment's log is replayed once and cut at timestamp boundaries of
// its own, each cut emitting the rule's next element. GetGraph(ts) then loads
// the nearest full — or starts from a cached graph that sits at one of the
// run's elements — and applies at most DeltaChainLength deltas plus a bounded
// log tail, instead of replaying from a distant snapshot.
package timestore

import (
	"cmp"
	"context"
	"fmt"
	"path/filepath"
	"slices"

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
	if err := emit(enc.DeltaFull, p.entry, position{}, logStart, g.Export()); err != nil {
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
	err := s.replayWal(ctx, p.log, 1, logStart, logEnd, func(off int64, u model.Update) bool {
		// Cut only at timestamp boundaries — a frame holds one timestamp, so
		// off is where u's frame, and the cut, starts: every element is
		// complete at its timestamp, so a sealed element's graph can always
		// be cached.
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
// the delta header, every later frame a block of up to frameBatchRecords
// update records — and returns its catalogue entry for the caller to place.
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
func readChainHeader(fs vfs.FS, path string) (enc.DeltaHeader, error) {
	frames, err := readFrames(fs, path, true)
	if err != nil {
		return enc.DeltaHeader{}, err
	}
	return enc.DecodeDeltaHeader(frames[0])
}

// applyChainFile streams elem's update records into g, sharing with ref (nil:
// nothing to share with) every entity version they produce that ref holds too
// (memgraph.ApplyShared). countReplay marks delta applications
// (materialization work the chain could not avoid) for the ReplayedUpdates
// stat; full loads are snapshot loads, not replay.
func (s *Store) applyChainFile(ctx context.Context, elem chainElem, g, ref *memgraph.Graph, countReplay bool) error {
	var applied, loaded, shared uint64
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
			for _, u := range us {
				same, err := g.ApplyShared(u, ref)
				if err != nil {
					return fmt.Errorf("timestore: chain apply %s: %w", elem.path, err)
				}
				if same {
					shared++
				}
				if u.Kind != model.OpDeleteNode && u.Kind != model.OpDeleteRel {
					loaded++
				}
			}
			applied += uint64(len(us))
			if countReplay {
				s.replayed.Add(uint64(len(us)))
			}
			return nil
		})
	s.loadedEntities.Add(loaded)
	s.sharedEntities.Add(shared)
	if err == nil && applied != elem.count {
		err = fmt.Errorf("timestore: chain file %s holds %d records, header says %d", elem.path, applied, elem.count)
	}
	return err
}

// loadElem builds a private graph at seg's chain[j] from the element files:
// the nearest full at or before j, then every delta up to j. near, unless
// nil, is a private graph complete at its timestamp that may stand in for
// the head of that run: when it sits at the base of one of the run's deltas,
// and that base is complete too, only the deltas from there on are read, and
// applied to near — which, a CoW clone of a cached graph, keeps sharing every
// entity they leave alone with it. Every entity version the files do produce
// is shared with ref, a handle on the committed graph (nil: recovery, which
// builds that graph), where that holds it too.
func (s *Store) loadElem(ctx context.Context, seg *segment, chain []chainElem, j int, near, ref *memgraph.Graph) (*memgraph.Graph, error) {
	from, g := j, memgraph.New()
	//aionlint:ignore ctxloop backward walk is bounded by DeltaChainLength steps, each at most one log frame read
	for ; chain[from].kind == enc.DeltaDiff; from-- {
		base := chain[from-1]
		if near == nil || base.pos.ts != near.Timestamp() {
			continue
		}
		ok, err := elemComplete(seg, base)
		if err != nil {
			return nil, err
		}
		if ok {
			g = near
			break
		}
	}
	for k := from; k <= j; k++ {
		if err := s.applyChainFile(ctx, chain[k], g, ref, chain[k].kind == enc.DeltaDiff); err != nil {
			return nil, err
		}
	}
	g.SetTimestamp(chain[j].pos.ts)
	return g, nil
}

// elemComplete reports whether e covers every update at its timestamp, so
// that the graph at e is the one the GraphStore keys by that timestamp (the
// cache key carries no sequence). Policy snapshots and compaction cut only at
// timestamp boundaries; an eager snapshot may sit mid-timestamp, and is
// complete only if the frame right after it — the one at its logOff, the only
// one read, whose records share one timestamp — carries a later timestamp or
// does not exist.
func elemComplete(seg *segment, e chainElem) (bool, error) {
	if e.logOff >= seg.log.Size() {
		return true, nil
	}
	frame, err := seg.log.ReadAt(e.logOff)
	if err != nil {
		return false, err
	}
	_, ts, err := enc.PeekBlock(frame)
	return ts > e.pos.ts, err
}

// materializeElem is loadElem for a query, near being the GraphStore's floor
// for it (nil: none): the graph is also cached for the next reader when it is
// complete at its timestamp. Caller holds sealMu (either mode).
func (s *Store) materializeElem(ctx context.Context, seg *segment, chain []chainElem, j int, near *memgraph.Graph) (*memgraph.Graph, error) {
	// One O(1) handle on the committed graph serves the load and the rebase:
	// what a loaded graph has in common with it is held once ("Sharing with the
	// current graph", DESIGN.md). Any state of it serves — entities are
	// immutable — so the handle is not checked against the log's end.
	ref, _, _ := s.pull()
	g, err := s.loadElem(ctx, seg, chain, j, near, ref)
	if err != nil {
		return nil, err
	}
	g.ShareChunks(ref)
	complete, err := elemComplete(seg, chain[j])
	if err != nil {
		return nil, err
	}
	if complete {
		s.gs.Put(g) // caches a CoW clone; g itself stays the caller's
	}
	return g, s.rebaseRun(ctx, chain, j, g, ref)
}

// rebaseRun keeps the cached graphs of one run a single line of descent: each
// graph cached at a delta after chain[j] is derived again, from g — just built
// at chain[j] — and takes the old one's place. Whatever they had been derived
// from, they then share with g every entity those deltas leave alone, so what
// a store keeps resident follows from which graphs it caches, not from the
// order its misses arrived in. The work is bounded by the run's deltas.
func (s *Store) rebaseRun(ctx context.Context, chain []chainElem, j int, g, ref *memgraph.Graph) error {
	last := j
	//aionlint:ignore ctxloop forward walk is bounded by DeltaChainLength steps and does no I/O
	for k := j + 1; k < len(chain) && chain[k].kind == enc.DeltaDiff; k++ {
		if s.gs.Holds(chain[k].pos.ts) {
			last = k
		}
	}
	g = g.Clone() // the caller's graph stays at chain[j]
	for k := j + 1; k <= last; k++ {
		if err := s.applyChainFile(ctx, chain[k], g, ref, true); err != nil {
			return err
		}
		g.SetTimestamp(chain[k].pos.ts)
		g.ShareChunks(ref)
		s.gs.Rebase(g)
	}
	return nil
}

// --- segment compaction ------------------------------------------------------

// entAcc folds one entity's updates within a window to their net effect,
// as pointers into the window. At most one of each survives: del (a
// pre-existing entity deleted in the window), add (an entity created — or
// deleted-and-recreated — in the window, with later updates merged in), upd (a
// pre-existing entity modified). del+add together encode
// delete-then-recreate.
type entAcc struct {
	del, add, upd *model.Update
}

// emitPhase orders a compacted window so that memgraph.Apply's referential
// constraints hold: rel deletes, node deletes, node adds/updates, rel
// adds/updates (a node is deleted only after its rels, a rel added only
// after its endpoints).
func emitPhase(k model.OpKind) int {
	switch {
	case k == model.OpDeleteRel:
		return 0
	case k == model.OpDeleteNode:
		return 1
	case k.IsNodeOp():
		return 2
	}
	return 3
}

// compactUpdates reduces a window of the update stream to its net effect:
// the minimal-ish update list that transforms the window's entry graph into
// its end graph through memgraph.Apply, in emitPhase order and by entity ID
// within a phase. It owns us: later updates are merged into earlier ones in
// place, so the label slices and property maps must alias nothing the caller
// still reads — true of updates fresh from the decoder, which is where both
// callers (seal compaction, the snapshot worker) get theirs.
func compactUpdates(us []model.Update) []model.Update {
	slot := make(map[int64]int32, len(us)/2) // entity key → index into accs
	accs := make([]entAcc, 0, len(us)/2)
	for i := range us {
		u := &us[i]
		k := u.EntityKey()
		ai, seen := slot[k]
		if !seen {
			ai = int32(len(accs))
			slot[k] = ai
			accs = append(accs, entAcc{})
		}
		a := &accs[ai]
		switch u.Kind {
		case model.OpAddNode, model.OpAddRel:
			a.add = u
		case model.OpUpdateNode, model.OpUpdateRel:
			switch {
			case a.add != nil:
				mergeIntoAdd(a.add, *u)
			case a.upd != nil:
				mergeUpdates(a.upd, *u)
			default:
				a.upd = u
			}
		case model.OpDeleteNode, model.OpDeleteRel:
			if a.add != nil {
				a.add = nil // created and destroyed within the window
			} else {
				a.upd, a.del = nil, u
			}
		}
	}
	net := make([]*model.Update, 0, len(accs))
	for _, a := range accs {
		for _, u := range [...]*model.Update{a.del, a.add, a.upd} {
			if u != nil {
				net = append(net, u)
			}
		}
	}
	slices.SortFunc(net, func(a, b *model.Update) int {
		return cmp.Or(cmp.Compare(emitPhase(a.Kind), emitPhase(b.Kind)), cmp.Compare(a.EntityKey(), b.EntityKey()))
	})
	out := make([]model.Update, len(net))
	for i, u := range net {
		u.Normalize()
		out[i] = *u
	}
	return out
}

// mergeIntoAdd folds a later update b into a pending add: the add's labels
// and props become the post-b state (Apply's order within one update is
// del-labels-then-add-labels and set-props-then-del-props, so b's label
// deletes strike a's labels before b's own land, and b's property sets land
// before b's deletes strike them).
func mergeIntoAdd(add *model.Update, b model.Update) {
	add.AddLabels = append(minusStrs(add.AddLabels, b.DelLabels), b.AddLabels...)
	add.SetProps = mergeProps(add.SetProps, b.SetProps, b.DelProps)
}

// mergeUpdates folds update b into update a so that applying the merged
// update equals applying a then b:
//
//	labels: del = aDel ∪ bDel;  add = (aAdd − bDel) ∪ bAdd
//	props:  set = (aSet overlaid by bSet) − bDel;  del = (aDel − keys(bSet)) ∪ bDel
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

// mergeProps applies (set bSet, then del bDel — Apply's order, so a key an
// update both sets and deletes ends deleted) on top of base, returning the
// surviving set map.
func mergeProps(base, bSet model.Properties, bDel []string) model.Properties {
	if base == nil && bSet == nil {
		return nil
	}
	out := base
	if out == nil {
		out = model.Properties{}
	}
	for k, v := range bSet {
		out[k] = v
	}
	for _, k := range bDel {
		delete(out, k)
	}
	return out
}
