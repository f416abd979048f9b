// Chain elements: writing, loading, and the net-effect compaction of a delta
// (DeltaGraph-style differential snapshots, PAPERS.md arXiv:1207.5777). The
// chain is fulls with up to DeltaChainLength *differential* snapshots between
// them, each holding the updates since the previous element compacted to
// their net effect; it grows one policy snapshot at a time
// (persistSnapshot). GetGraph(ts) then loads the nearest full — or starts
// from a cached graph that sits at one of the run's elements — and applies at
// most DeltaChainLength deltas plus a bounded log tail, instead of replaying
// from a distant snapshot.
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

// writeChainElem publishes one element file in the segment directory — frame 0 is
// the delta header, every later frame a block of up to frameBatchRecords
// update records — and returns its catalogue entry for the caller to place.
func (s *Store) writeChainElem(kind enc.DeltaKind, pos, base position, logOff int64, us []model.Update) (chainElem, error) {
	hdr := enc.DeltaHeader{
		Kind: kind, TS: pos.ts, Seq: pos.seq,
		BaseTS: base.ts, BaseSeq: base.seq,
		LogOff: logOff, Count: uint64(len(us)),
	}
	path := filepath.Join(s.seg.dir, chainFileName(kind, pos))
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

// loadElem builds a private graph at chain[j] from the element files:
// the nearest full at or before j, then every delta up to j. near, unless
// nil, is a private graph complete at its timestamp that may stand in for
// the head of that run: when it sits at the base of one of the run's deltas,
// and that base is complete too, only the deltas from there on are read, and
// applied to near — which, a CoW clone of a cached graph, keeps sharing every
// entity they leave alone with it. Every entity version the files do produce
// is shared with ref, a handle on the committed graph (nil: recovery, which
// builds that graph), where that holds it too.
func (s *Store) loadElem(ctx context.Context, chain []chainElem, j int, near, ref *memgraph.Graph) (*memgraph.Graph, error) {
	from, g := j, memgraph.New()
	//aionlint:ignore ctxloop backward walk is bounded by DeltaChainLength steps, each at most one log frame read
	for ; chain[from].kind == enc.DeltaDiff; from-- {
		base := chain[from-1]
		if near == nil || base.pos.ts != near.Timestamp() {
			continue
		}
		ok, err := s.elemComplete(base)
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
// cache key carries no sequence). Policy snapshots sit only at timestamp
// boundaries; an eager snapshot may sit mid-timestamp, and is
// complete only if the frame right after it — the one at its logOff, the only
// one read, whose records share one timestamp — carries a later timestamp or
// does not exist.
func (s *Store) elemComplete(e chainElem) (bool, error) {
	if e.logOff >= s.seg.log.Size() {
		return true, nil
	}
	frame, err := s.seg.log.ReadAt(e.logOff)
	if err != nil {
		return false, err
	}
	_, ts, err := enc.PeekBlock(frame)
	return ts > e.pos.ts, err
}

// materializeElem is loadElem for a query, near being the GraphStore's floor
// for it (nil: none): the graph is also cached for the next reader when it is
// complete at its timestamp and nothing is cached there yet — the snapshot
// worker publishes the element's file before its graph, and a reader's copy,
// shared with a later committed graph, holds private objects for whatever
// changed in between.
func (s *Store) materializeElem(ctx context.Context, chain []chainElem, j int, near *memgraph.Graph) (*memgraph.Graph, error) {
	// One O(1) handle on the committed graph serves the load and the rebase:
	// what a loaded graph has in common with it is held once ("Sharing with the
	// current graph", DESIGN.md). Any state of it serves — entities are
	// immutable — so the handle is not checked against the log's end.
	ref, _, _ := s.pull()
	g, err := s.loadElem(ctx, chain, j, near, ref)
	if err != nil {
		return nil, err
	}
	g.ShareChunks(ref)
	complete, err := s.elemComplete(chain[j])
	if err != nil {
		return nil, err
	}
	if complete {
		s.gs.Admit(g) // caches a CoW clone; g itself stays the caller's
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

// --- delta compaction --------------------------------------------------------

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
// still reads — true of updates fresh from the decoder, which is where its
// caller, the snapshot worker, gets them.
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
			case a.add != nil || a.upd != nil: // an insertion takes it in and stays one
				model.MergeUpdates(cmp.Or(a.add, a.upd), *u)
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
