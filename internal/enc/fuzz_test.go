package enc

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"aion/internal/model"
	"aion/internal/strstore"
)

// TestDecodeRandomBytesNeverPanics drives the decoder with random garbage:
// it must return errors, not panic, whatever the input (defensive decode on
// data read back from disk).
func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	c := NewCodec(strstore.NewMem())
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 50000; i++ {
		n := rng.Intn(40)
		b := make([]byte, n)
		rng.Read(b)
		_, _ = c.DecodeUpdate(b) // must not panic
	}
}

// seedUpdates is one valid update of every kind, covering each value type —
// the fuzz corpus starts from real record bytes so mutations explore the
// decoder's deep paths instead of dying on the first tag byte.
func seedUpdates() []model.Update {
	return []model.Update{
		model.AddNode(1, 10, []string{"Person", "Org"}, model.Properties{
			"s": model.StringValue("x"), "i": model.IntValue(-7)}),
		model.UpdateNode(2, 10, []string{"City"}, []string{"Org"},
			model.Properties{"f": model.FloatValue(2.5)}, []string{"s"}),
		model.AddRel(3, 4, 10, 11, "KNOWS", model.Properties{
			"ia": model.IntArrayValue([]int64{1, 2, 3}), "b": model.BoolValue(true)}),
		model.UpdateRel(4, 4, 10, 11, model.Properties{"w": model.IntValue(9)}, nil),
		model.DeleteRel(5, 4, 10, 11),
		model.DeleteNode(6, 11),
	}
}

// refSeeds are update records whose refs sit at the uvarint boundaries — the
// widest 1- and 2-byte refs and the narrowest 2-, 3- and 5-byte ones — and at
// and past strstore.MaxRef, each as a relationship label and as a property key,
// plus the non-minimal encoding of the first string's ref: the fuzzers start
// from every width the ref parser has to tell apart.
func refSeeds() [][]byte {
	var seeds [][]byte
	for _, v := range []uint64{0x70, 0x7f, 0x80, 0x3fff, 0x4000, 1<<28 - 1, 1 << 28, strstore.MaxRef << 4, (strstore.MaxRef + 1) << 4} {
		ref := binary.AppendUvarint(nil, v)
		seeds = append(seeds,
			append(append([]byte{0x01, 5, 4, 10, 11}, ref...), 0), // an inserted relationship's label, no props
			append(append([]byte{0x00, 5, 1, 0, 1}, ref...), 2))   // a node with no labels and one int property
	}
	return append(seeds, []byte{0x00, 5, 1, 1, 0x80, 0x00, 0})
}

// FuzzDecodeUpdates is the harness's fuzz leg (wired as `make fuzz-smoke`):
// DecodeUpdate/DecodeUpdates must never panic on arbitrary bytes — they see
// exactly this input class when recovery replays a log whose tail a crash
// tore — and every record they accept must be the one its update encodes to,
// byte for byte (property keys are encoded sorted, and every uvarint and ref
// minimal, so each update has one encoding), and PeekTS must report the
// timestamp the full decode does.
func FuzzDecodeUpdates(f *testing.F) {
	seedCodec := NewCodec(strstore.NewMem())
	for _, u := range seedUpdates() {
		b, err := seedCodec.EncodeUpdate(u)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	for _, b := range refSeeds() {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		c := fuzzCodec(t)
		u, err := c.DecodeUpdate(b)
		if _, berr := c.DecodeUpdates(nil, [][]byte{b, b}); (berr == nil) != (err == nil) {
			t.Fatalf("DecodeUpdates disagrees with DecodeUpdate: %v vs %v", berr, err)
		}
		// PeekTS reads the prefix DecodeUpdate starts with: it must agree on
		// every record the decoder accepts (and only not panic on the rest).
		if ts, perr := PeekTS(b); err == nil && (perr != nil || ts != u.TS) {
			t.Fatalf("PeekTS = %d, %v on a record that decodes to ts %d", ts, perr, u.TS)
		}
		if err != nil {
			return
		}
		enc1, err := c.EncodeUpdate(u)
		if err != nil {
			t.Fatalf("re-encode of decoded update %v: %v", u, err)
		}
		if !bytes.HasPrefix(b, enc1) {
			t.Fatalf("an accepted record does not re-encode byte for byte:\n  record     %x\n  re-encoded %x", b, enc1)
		}
		u2, err := c.DecodeUpdate(enc1)
		if err != nil {
			t.Fatalf("decode of re-encoded update %v: %v", u, err)
		}
		enc2, err := c.EncodeUpdate(u2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("round-trip not canonical:\n  first  %x\n  second %x", enc1, enc2)
		}
	})
}

// FuzzDecodeBlock is the block leg of `make fuzz-smoke`: a TimeStore log
// frame or element frame whose CRC happens to match damaged bytes reaches
// DecodeBlock as it is. On any input it must fail closed: no panic; a count
// the bytes cannot hold rejected before anything is reserved for it, and no
// more update slots reserved than the input has bytes; and a block it accepts
// holds exactly its count's records, re-encodes canonically, and stops
// decoding once its count is one more or one fewer or a byte follows it.
func FuzzDecodeBlock(f *testing.F) {
	seedCodec := NewCodec(strstore.NewMem())
	for _, us := range [][]model.Update{seedUpdates(), seedUpdates()[5:]} {
		b, err := seedCodec.AppendBlock(nil, us)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3})

	f.Fuzz(func(t *testing.T, b []byte) {
		c := fuzzCodec(t)
		us, err := c.DecodeBlock(nil, b)
		n, _, cerr := BlockCount(b)
		if cerr == nil && n*minRecordLen > len(b) {
			t.Fatalf("BlockCount accepted %d records in %d bytes", n, len(b))
		}
		if cerr != nil && (err == nil || len(us) > 0) {
			t.Fatalf("a block BlockCount rejects (%v) decoded %d updates, err %v", cerr, len(us), err)
		}
		if cap(us) > len(b) {
			t.Fatalf("reserved %d update slots for a %d-byte block", cap(us), len(b))
		}
		if err != nil {
			return
		}
		if len(us) != n {
			t.Fatalf("a block of %d records decoded to %d updates", n, len(us))
		}
		enc1, err := c.AppendBlock(nil, us)
		if err != nil {
			t.Fatalf("re-encode of a decoded block: %v", err)
		}
		us2, err := c.DecodeBlock(nil, enc1)
		if err != nil {
			t.Fatalf("decode of a re-encoded block: %v", err)
		}
		if enc2, err := c.AppendBlock(nil, us2); err != nil || !bytes.Equal(enc1, enc2) {
			t.Fatalf("block round trip not canonical (%v):\n  first  %x\n  second %x", err, enc1, enc2)
		}
		recs := enc1[len(binary.AppendUvarint(nil, uint64(n))):]
		for _, bad := range [][]byte{
			append(binary.AppendUvarint(nil, uint64(n+1)), recs...),
			append(binary.AppendUvarint(nil, uint64(n-1)), recs...),
			append(enc1, 0),
		} {
			if _, err := c.DecodeBlock(nil, bad); err == nil {
				t.Fatalf("block %x decoded although its count does not match its records", bad)
			}
		}
	})
}

// fuzzCodec is a codec whose string table resolves the seeds' small refs, so
// decoding reaches past the ref-lookup guards.
func fuzzCodec(t *testing.T) *Codec {
	st := strstore.NewMem()
	for _, s := range []string{"Person", "Org", "City", "KNOWS", "s", "i", "f", "ia", "b", "w", "x"} {
		if _, err := st.Intern(s); err != nil {
			t.Fatal(err)
		}
	}
	return NewCodec(st)
}

// TestDecodeTruncatedValidRecords truncates real records at every length:
// each prefix must decode cleanly or fail cleanly.
func TestDecodeTruncatedValidRecords(t *testing.T) {
	c := newCodec()
	full, err := c.EncodeUpdate(model.AddRel(42, 7, 1, 2, "KNOWS",
		model.Properties{
			"s":  model.StringValue("x"),
			"ia": model.IntArrayValue([]int64{1, 2, 3}),
			"f":  model.FloatValue(1.5),
		}))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		_, _ = c.DecodeUpdate(full[:cut]) // must not panic
	}
}

// FuzzDecodeVersion (a leg of `make fuzz-smoke`): a LineageStore read decodes
// version values off B+Tree pages that carry no checksum. On any bytes, src,
// id and ts DecodeVersion must return an error or an update, never panic, and
// allocate at most in proportion to its input. It must agree with
// DecodeUpdate on the record that puts ts and id back — and src, for a
// relationship — and what it accepts must re-encode to its own bytes. The
// decoders into an entity, which the LineageStore's reads use, must agree
// with it too (versionsAgree).
func FuzzDecodeVersion(f *testing.F) {
	seedCodec := NewCodec(strstore.NewMem())
	for _, u := range seedUpdates() {
		b, err := seedCodec.AppendVersion(nil, u)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, int64(u.Src), int64(u.NodeID+model.NodeID(u.RelID)), int64(u.TS))
	}
	f.Add([]byte{}, int64(0), int64(0), int64(0))
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0x0f}, int64(-1), int64(-1), int64(math.MaxInt64))
	for _, b := range refSeeds() {
		if b[0]&headerTypeMask == byte(TypeRel) { // the record without its ts, id and src
			f.Add(append(b[:1:1], b[4:]...), int64(b[3]), int64(b[2]), int64(b[1]))
		} else { // without its ts and id
			f.Add(append(b[:1:1], b[3:]...), int64(0), int64(b[2]), int64(b[1]))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte, src, id, ts int64) {
		c := fuzzCodec(t)
		u, err := c.DecodeVersion(b, model.NodeID(src), id, model.Timestamp(ts))
		versionsAgree(t, c, b, u, err)
		// The fewest bytes of three decodes: the fuzzing worker allocates too.
		n := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = c.DecodeVersion(b, model.NodeID(src), id, model.Timestamp(ts))
			runtime.ReadMemStats(&after)
			n = min(n, after.TotalAlloc-before.TotalAlloc)
		}
		if n > 4096+64*uint64(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), n)
		}
		var full []byte
		if len(b) > 0 {
			full = binary.AppendUvarint(binary.AppendUvarint([]byte{b[0]}, uint64(ts)), uint64(id))
			if b[0]&headerTypeMask == byte(TypeRel) {
				full = binary.AppendUvarint(full, uint64(src))
			}
			full = append(full, b[1:]...)
		}
		whole, uerr := c.DecodeUpdate(full)
		if (uerr == nil) != (err == nil) {
			t.Fatalf("DecodeVersion = %v, %v; DecodeUpdate of the whole record = %v, %v", u, err, whole, uerr)
		}
		if err != nil {
			return
		}
		enc1, err := c.AppendVersion(nil, u)
		if err != nil {
			t.Fatalf("re-encode of decoded version %v: %v", u, err)
		}
		if !bytes.HasPrefix(b, enc1) {
			t.Fatalf("an accepted version does not re-encode byte for byte:\n  version    %x\n  re-encoded %x", b, enc1)
		}
		// The same bytes, so the same update (a NaN in an array included).
		if w, err := c.AppendVersion(nil, whole); err != nil || !bytes.Equal(w, enc1) {
			t.Fatalf("DecodeVersion = %v; DecodeUpdate of the whole record = %v (%x, %v)", u, whole, w, err)
		}
		u2, err := c.DecodeVersion(enc1, model.NodeID(src), id, model.Timestamp(ts))
		if err != nil {
			t.Fatalf("decode of re-encoded version %v: %v", u, err)
		}
		if enc2, err := c.AppendVersion(nil, u2); err != nil || !bytes.Equal(enc1, enc2) {
			t.Fatalf("version round trip not canonical (%v):\n  first  %x\n  second %x", err, enc1, enc2)
		}
	})
}

// versionsAgree checks DecodeNodeVersion and DecodeRelVersion on b against
// DecodeVersion's u and err: both fail where it fails, and on a tombstone; a
// full record sets the state a fresh version built from u holds, and a delta
// changes a version as u.ApplyToNode or u.ApplyToRel does, in place.
func versionsAgree(t *testing.T, c *Codec, b []byte, u model.Update, err error) {
	t.Helper()
	n := model.Node{ID: u.NodeID, Labels: []string{"L"}, Props: model.Properties{"k": model.IntValue(1)}}
	r := model.Rel{ID: u.RelID, Src: u.Src, Tgt: 1, Label: "T", Props: model.Properties{"k": model.IntValue(1)}}
	wantN, wantR := n, r
	wantN.Labels, wantN.Props, wantR.Props = slices.Clone(n.Labels), n.Props.Clone(), r.Props.Clone()
	nerr, rerr := c.DecodeNodeVersion(b, &n), c.DecodeRelVersion(b, &r)
	node, rel := false, false
	switch {
	case err != nil:
	case u.Kind == model.OpAddNode:
		wantN.Labels, wantN.Props, node = nil, nil, true
		u.ApplyToNode(&wantN)
	case u.Kind == model.OpUpdateNode:
		u.ApplyToNode(&wantN)
		node = true
	case u.Kind == model.OpAddRel:
		wantR.Label, wantR.Props, rel = u.RelLabel, nil, true
		fallthrough
	case u.Kind == model.OpUpdateRel:
		wantR.Tgt, rel = u.Tgt, true
		u.ApplyToRel(&wantR)
	}
	if (nerr == nil) != node || (rerr == nil) != rel {
		t.Fatalf("%v (%v): DecodeNodeVersion %v, DecodeRelVersion %v", u, err, nerr, rerr)
	}
	same := func(p, q model.Properties) bool { // by their bytes: a NaN in an array is equal to itself
		pb, perr := c.appendProps(nil, p, nil)
		qb, qerr := c.appendProps(nil, q, nil)
		return perr == nil && qerr == nil && bytes.Equal(pb, qb)
	}
	if node && (!slices.Equal(n.Labels, wantN.Labels) || !same(n.Props, wantN.Props)) {
		t.Fatalf("%v decodes into %+v, want %+v", u, n, wantN)
	}
	if rel && (r.Tgt != wantR.Tgt || r.Label != wantR.Label || !same(r.Props, wantR.Props)) {
		t.Fatalf("%v decodes into %+v, want %+v", u, r, wantR)
	}
}
