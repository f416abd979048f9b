package timestore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/testkit/vfstest"
	"aion/internal/wal"
)

// elemCodec is a codec whose string table holds what elemHistory's records
// refer to, interned in one order, so every codec built by it reads what any
// other wrote.
func elemCodec(tb testing.TB) *enc.Codec {
	st := strstore.NewMem()
	for _, s := range []string{"N", "R", "v", "w"} {
		if _, err := st.Intern(s); err != nil {
			tb.Fatal(err)
		}
	}
	return enc.NewCodec(st)
}

// elemHistory is 24 nodes, a relationship between each neighbouring pair and
// a property edit of every third node: small, because the fuzzer minimizes
// every input it finds interesting, at a cost that grows with its size.
func elemHistory() []model.Update {
	var us []model.Update
	for i := 0; i < 24; i++ {
		us = append(us, model.AddNode(model.Timestamp(1+i/4), model.NodeID(i), []string{"N"}, model.Properties{"v": model.IntValue(int64(i))}))
	}
	for i := 0; i < 23; i++ {
		us = append(us, model.AddRel(model.Timestamp(7+i/4), model.RelID(i), model.NodeID(i), model.NodeID(i+1), "R", nil))
	}
	for i := 0; i < 24; i += 3 {
		us = append(us, model.UpdateNode(13, model.NodeID(i), nil, nil, model.Properties{"w": model.IntValue(1)}, []string{"v"}))
	}
	return us
}

// splitFrames splits an element file into its frames' payloads with nothing
// but the record layout.
func splitFrames(b []byte) ([][]byte, error) {
	var frames [][]byte
	for len(b) > 0 {
		payload, rest, err := wal.Cut(b)
		if err != nil {
			return nil, err
		}
		frames, b = append(frames, payload), rest
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("no header")
	}
	return frames, nil
}

// splitElement reads a full's element file with nothing but the frame layout
// and enc's header and block decoders, and applies its records to an empty
// graph.
func splitElement(codec *enc.Codec, b []byte) (*memgraph.Graph, error) {
	frames, err := splitFrames(b)
	if err != nil {
		return nil, err
	}
	hdr, err := enc.DecodeDeltaHeader(frames[0])
	if err != nil {
		return nil, err
	}
	var us []model.Update
	for _, f := range frames[1:] {
		if us, err = codec.DecodeBlock(us, f); err != nil {
			return nil, err
		}
	}
	if uint64(len(us)) != hdr.Count {
		return nil, fmt.Errorf("%d records, header says %d", len(us), hdr.Count)
	}
	g := memgraph.New()
	return g, g.ApplyAll(us)
}

// windowEnd is one frame boundary of a log after a base element: its
// offset, the stream position complete there, the records since the base.
type windowEnd struct {
	off   int64
	pos   position
	count uint64
}

// FuzzReadElement is the element-file leg of `make fuzz-smoke`: recovery's
// derivation and every materialization read .dsnap files that a torn write or
// a flipped bit may have changed anywhere. readChainHeader and applyChainFile
// must fail closed — a corrupt length, checksum, magic or block is an error,
// never a panic or a walk off a slice. A full must be accepted exactly when
// splitElement accepts it, into the same graph. A delta, applied on the graph
// of the seed's full, must be accepted exactly when it is one header frame
// naming that full as its base and a log window that ends at a frame boundary
// at its position with Count records — a mutated logOff, Count or base fails
// — and then build the history's graph at that position.
func FuzzReadElement(f *testing.F) {
	dir := f.TempDir()
	seed, err := Open(elemCodec(f), Options{Dir: dir, SnapshotEveryOps: 1 << 30, DeltaChainLength: 2})
	if err != nil {
		f.Fatal(err)
	}
	us := elemHistory()
	if err := seed.AppendBatch(us[:len(us)-8]); err != nil {
		f.Fatal(err)
	}
	if err := policySnapshot(seed); err != nil { // a full
		f.Fatal(err)
	}
	if err := seed.AppendBatch(us[len(us)-8:]); err != nil {
		f.Fatal(err)
	}
	if err := policySnapshot(seed); err != nil { // a delta on it
		f.Fatal(err)
	}
	chain := seed.seg.elems()
	full := chain[0]
	var delta enc.DeltaHeader
	for _, e := range chain {
		b, err := os.ReadFile(e.path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-5])
		if e.kind == enc.DeltaDiff {
			if delta, err = enc.DecodeDeltaHeader(b[wal.HeaderSize:]); err != nil {
				f.Fatal(err)
			}
			hdr := delta
			for _, mutate := range []func(h *enc.DeltaHeader){
				func(h *enc.DeltaHeader) { h.LogOff-- },
				func(h *enc.DeltaHeader) { h.LogOff = full.logOff },
				func(h *enc.DeltaHeader) { h.Count++ },
				func(h *enc.DeltaHeader) { h.BaseSeq++ },
			} {
				m := hdr
				mutate(&m)
				f.Add(wal.AppendRecord(nil, enc.AppendDeltaHeader(nil, m)))
			}
			f.Add(append(b, b...)) // a record-shaped frame behind the header
		}
	}
	if err := seed.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 'A', 'D', 'S', '2'})

	log, err := wal.Open(filepath.Join(dir, segmentDir, "updates.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { log.Close() })
	// Every frame boundary at or after the full's logOff is a window end.
	pos := streamPositions(us)
	ends := []windowEnd{{off: full.logOff, pos: full.pos}}
	if _, err := log.Scan(full.logOff, func(off int64, frame []byte) bool {
		n, _, err := enc.BlockCount(frame)
		if err != nil {
			f.Fatal(err)
		}
		last := ends[len(ends)-1]
		ends = append(ends, windowEnd{off: off + wal.HeaderSize + int64(len(frame)), count: last.count + uint64(n),
			pos: pos[slices.Index(pos, last.pos)+n]})
		return true
	}); err != nil {
		f.Fatal(err)
	}
	// A window one frame short, Count agreeing with it: only the position
	// the window ends at tells it from the delta's.
	short := delta
	short.LogOff, short.Count = ends[len(ends)-2].off, ends[len(ends)-2].count
	f.Add(wal.AppendRecord(nil, enc.AppendDeltaHeader(nil, short)))
	graphAt := func(p position) *memgraph.Graph {
		g := memgraph.New()
		for i, u := range us {
			if !p.before(pos[i]) {
				if err := g.Apply(u); err != nil {
					f.Fatal(err)
				}
			}
		}
		return g
	}
	base := graphAt(full.pos)

	s := &Store{codec: elemCodec(f),
		seg: &segment{dir: "e", log: log}}
	path := filepath.Join("e", chainFileName(enc.DeltaFull, position{ts: 1}))
	f.Fuzz(func(t *testing.T, b []byte) {
		fs := vfstest.NewFaultFS()
		file, err := fs.Create(path)
		if err == nil {
			_, err = file.WriteAt(b, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		s.fs = fs
		hdr, err := readChainHeader(fs, path)
		if err != nil {
			if frames, werr := splitFrames(b); werr == nil && len(frames[0]) <= headFrameMax-wal.HeaderSize {
				if _, herr := enc.DecodeDeltaHeader(frames[0]); herr == nil {
					t.Fatalf("the header reader says %v, the frame layout and header decoder accept", err)
				}
			}
			return
		}
		e := derived(hdr, path)
		if hdr.Kind == enc.DeltaFull {
			g := memgraph.New()
			err = s.applyChainFile(context.Background(), []chainElem{e}, 0, g, nil, false)
			want, werr := splitElement(s.codec, b)
			if (err == nil) != (werr == nil) {
				t.Fatalf("the reader says %v, the frame layout %v", err, werr)
			}
			if err == nil && fmt.Sprint(g.Export()) != fmt.Sprint(want.Export()) {
				t.Fatal("the reader built another graph than the frame layout describes")
			}
			return
		}
		g := base.Clone()
		err = s.applyChainFile(context.Background(), []chainElem{full, e}, 1, g, nil, false)
		frames, _ := splitFrames(b)
		accept := len(frames) == 1 && e.base == full.pos && slices.Contains(ends, windowEnd{off: e.logOff, pos: e.pos, count: e.count})
		if (err == nil) != accept {
			t.Fatalf("the reader says %v of a delta %+v in %d frames, the log's window ends say %v", err, hdr, len(frames), accept)
		}
		if err == nil && fmt.Sprint(g.Export()) != fmt.Sprint(graphAt(e.pos).Export()) {
			t.Fatal("the reader built another graph than the history's at the delta's position")
		}
	})
}
