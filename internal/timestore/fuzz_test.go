package timestore

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"aion/internal/enc"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/pool"
	"aion/internal/strstore"
	"aion/internal/vfs"
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

// splitElement reads an element file with nothing but the frame layout and
// enc's header and block decoders, and applies its records to an empty graph.
func splitElement(codec *enc.Codec, b []byte) (*memgraph.Graph, error) {
	var frames [][]byte
	for len(b) > 0 {
		if len(b) < frameHdrLen || int64(binary.LittleEndian.Uint32(b)) > int64(len(b)-frameHdrLen) {
			return nil, fmt.Errorf("torn frame")
		}
		n := int(binary.LittleEndian.Uint32(b))
		if crc32.ChecksumIEEE(b[frameHdrLen:frameHdrLen+n]) != binary.LittleEndian.Uint32(b[4:]) {
			return nil, fmt.Errorf("frame checksum")
		}
		frames, b = append(frames, b[frameHdrLen:frameHdrLen+n]), b[frameHdrLen+n:]
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("no header")
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

// FuzzReadElement is the element-file leg of `make fuzz-smoke`: recovery's
// derivation and every materialization read .dsnap files that a torn write or
// a flipped bit may have changed anywhere. readChainHeader and applyChainFile
// must fail closed — a corrupt length, checksum, magic or block is an error,
// never a panic or a walk off a slice — and accept exactly what splitElement
// accepts, into the same graph.
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
	for _, e := range seed.active().elems() {
		b, err := os.ReadFile(e.path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-5])
	}
	if err := seed.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 'A', 'D', 'S', '2'})

	s := &Store{codec: elemCodec(f), opts: Options{ParallelIO: 1}, framePool: pool.NewBytes(frameBatchBytes + 4096)}
	path := filepath.Join("e", chainFileName(enc.DeltaFull, position{ts: 1}))
	f.Fuzz(func(t *testing.T, b []byte) {
		fs := vfs.NewFaultFS()
		file, err := fs.Create(path)
		if err == nil {
			_, err = file.WriteAt(b, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		s.fs = fs
		g := memgraph.New()
		hdr, err := readChainHeader(fs, path)
		if err == nil {
			e := chainElem{kind: hdr.Kind, pos: position{ts: hdr.TS, seq: hdr.Seq}, count: hdr.Count, path: path}
			err = s.applyChainFile(context.Background(), e, g, nil, false)
		}
		want, werr := splitElement(s.codec, b)
		if (err == nil) != (werr == nil) {
			t.Fatalf("the reader says %v, the frame layout %v", err, werr)
		}
		if err == nil && fmt.Sprint(g.Export()) != fmt.Sprint(want.Export()) {
			t.Fatal("the reader built another graph than the frame layout describes")
		}
	})
}
