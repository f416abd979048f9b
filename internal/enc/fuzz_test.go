package enc

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
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

// FuzzDecodeUpdates is the harness's fuzz leg (wired as `make fuzz-smoke`):
// DecodeUpdate/DecodeUpdates must never panic on arbitrary bytes — they see
// exactly this input class when recovery replays a log whose tail a crash
// tore — and every successfully decoded update must round-trip: re-encoding
// it and decoding that must reproduce the same bytes (property keys are
// encoded sorted, so the bytes are canonical), and PeekTS must report the
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
// version values off B+Tree pages that carry no checksum. On any bytes, id
// and ts DecodeVersion must return an error or an update, never panic, and
// allocate at most in proportion to its input. It must agree with
// DecodeUpdate on the record that puts ts and id back, and what it accepts
// must re-encode canonically.
func FuzzDecodeVersion(f *testing.F) {
	seedCodec := NewCodec(strstore.NewMem())
	for _, u := range seedUpdates() {
		b, err := seedCodec.AppendVersion(nil, u)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, int64(u.NodeID+model.NodeID(u.RelID)), int64(u.TS))
	}
	f.Add([]byte{}, int64(0), int64(0))
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0x0f}, int64(-1), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, b []byte, id, ts int64) {
		c := fuzzCodec(t)
		u, err := c.DecodeVersion(b, id, model.Timestamp(ts))
		// The fewest bytes of three decodes: the fuzzing worker allocates too.
		n := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = c.DecodeVersion(b, id, model.Timestamp(ts))
			runtime.ReadMemStats(&after)
			n = min(n, after.TotalAlloc-before.TotalAlloc)
		}
		if n > 4096+64*uint64(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), n)
		}
		var full []byte
		if len(b) > 0 {
			full = binary.AppendUvarint(binary.AppendUvarint([]byte{b[0]}, uint64(ts)), uint64(id))
			full = append(full, b[1:]...)
		}
		whole, uerr := c.DecodeUpdate(full)
		if (uerr == nil) != (err == nil) || err == nil && !updatesEqual(u, whole) {
			t.Fatalf("DecodeVersion = %v, %v; DecodeUpdate of the whole record = %v, %v", u, err, whole, uerr)
		}
		if err != nil {
			return
		}
		enc1, err := c.AppendVersion(nil, u)
		if err != nil {
			t.Fatalf("re-encode of decoded version %v: %v", u, err)
		}
		u2, err := c.DecodeVersion(enc1, id, model.Timestamp(ts))
		if err != nil {
			t.Fatalf("decode of re-encoded version %v: %v", u, err)
		}
		if enc2, err := c.AppendVersion(nil, u2); err != nil || !bytes.Equal(enc1, enc2) {
			t.Fatalf("version round trip not canonical (%v):\n  first  %x\n  second %x", err, enc1, enc2)
		}
	})
}
