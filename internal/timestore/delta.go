// Chain elements: writing, loading and applying them (DeltaGraph-style
// differential snapshots, PAPERS.md arXiv:1207.5777). The chain is fulls with
// up to DeltaChainLength *differential* snapshots between them; it grows one
// policy snapshot at a time (persistSnapshot). A delta stores no records: its
// file is its header alone, and the log window it names — from its base's
// logOff to its own — is its records, kept once, in updates.log, the way
// DeltaGraph keeps the events between two snapshots once, as an eventlist.
// GetGraph(ts) then loads the nearest full — or starts from a cached graph
// that sits at one of the run's elements — and replays at most
// DeltaChainLength windows plus a bounded log tail, instead of replaying from
// a distant snapshot.
package timestore

import (
	"context"
	"fmt"
	"path/filepath"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/vfs"
	"aion/internal/wal"
)

// writeChainElem publishes one element file in the segment directory — frame
// 0 is the delta header, every later frame a block of up to frameBatchRecords
// of a full's records; a delta's header counts the records of its window
// and nothing follows it — and returns its catalogue entry for the caller to
// place.
func (s *Store) writeChainElem(kind enc.DeltaKind, pos, base position, logOff int64, count uint64, us []model.Update) (chainElem, error) {
	hdr := enc.DeltaHeader{
		Kind: kind, TS: pos.ts, Seq: pos.seq,
		BaseTS: base.ts, BaseSeq: base.seq,
		LogOff: logOff, Count: count,
	}
	path := filepath.Join(s.seg.dir, chainFileName(kind, pos))
	n, err := s.publishFrameFile(path, enc.AppendDeltaHeader(nil, hdr), us)
	if err != nil {
		return chainElem{}, err
	}
	return chainElem{
		kind: kind, pos: pos, base: base,
		logOff: logOff, count: count, path: path, size: n,
	}, nil
}

// headerFrameLen is the size of the one frame a delta file holds: its
// header, whose encoding is canonical (enc.DecodeDeltaHeader rejects any
// other), framed.
func headerFrameLen(hdr enc.DeltaHeader) int64 {
	return wal.HeaderSize + int64(len(enc.AppendDeltaHeader(nil, hdr)))
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

// applyChainFile applies chain[k] to g — a full's records, or a delta's log
// window, onto g at the delta's base chain[k-1] — sharing with ref (nil:
// nothing to share with) every entity version they produce that ref holds
// too (memgraph.ApplyShared). A delta fails closed: it must name chain[k-1]
// as its base, and its window must hold Count records and end at its
// position. countReplay marks delta applications (materialization work the
// chain could not avoid) for the ReplayedUpdates stat; full loads are
// snapshot loads, not replay.
func (s *Store) applyChainFile(ctx context.Context, chain []chainElem, k int, g, ref *memgraph.Graph, countReplay bool) error {
	elem := chain[k]
	frames, err := readFrames(s.fs, elem.path, false)
	if err != nil {
		return err
	}
	hdr, err := enc.DecodeDeltaHeader(frames[0])
	if err != nil {
		return err
	}
	if hdr.Kind != elem.kind || hdr.TS != elem.pos.ts || hdr.Seq != elem.pos.seq || hdr.Count != elem.count || hdr.LogOff != elem.logOff {
		return fmt.Errorf("timestore: chain file %s header changed since derivation", elem.path)
	}
	var applied, loaded, shared uint64
	apply := func(u model.Update) error {
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
		applied++
		return nil
	}
	var end position // where the records applied end
	if elem.kind == enc.DeltaFull {
		end = elem.pos
		err = s.decodeFrames(ctx, elem.path, frames[1:], apply)
	} else {
		if len(frames) != 1 || k == 0 || chain[k-1].pos != elem.base || elem.logOff > s.seg.log.Size() {
			return fmt.Errorf("timestore: delta %s is not a header on the element before it naming a window of the log", elem.path)
		}
		base := chain[k-1]
		end = base.pos
		var aerr error
		err = s.replayWal(ctx, base.logOff, elem.logOff, func(_ int64, u model.Update) bool {
			end = end.next(u.TS)
			aerr = apply(u)
			return aerr == nil
		})
		if err == nil {
			err = aerr
		}
	}
	s.loadedEntities.Add(loaded)
	s.sharedEntities.Add(shared)
	if countReplay {
		s.replayed.Add(applied)
	}
	if err == nil && (applied != elem.count || end != elem.pos) {
		err = fmt.Errorf("timestore: chain file %s: %d records ending at %+v, header says %d ending at %+v", elem.path, applied, end, elem.count, elem.pos)
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
		if err := s.applyChainFile(ctx, chain, k, g, ref, chain[k].kind == enc.DeltaDiff); err != nil {
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
// complete at its timestamp — the only way an element's graph enters the
// cache.
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
		if err := s.applyChainFile(ctx, chain, k, g, ref, true); err != nil {
			return err
		}
		g.SetTimestamp(chain[k].pos.ts)
		g.ShareChunks(ref)
		s.gs.Rebase(g)
	}
	return nil
}
