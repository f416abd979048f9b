package enc

import (
	"bytes"
	"math/rand"
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
		st := strstore.NewMem()
		// Populate the string table so small refs in mutated records
		// resolve and decoding reaches past the ref-lookup guards.
		for _, s := range []string{"Person", "Org", "City", "KNOWS", "s", "i", "f", "ia", "b", "w", "x"} {
			if _, err := st.Intern(s); err != nil {
				t.Fatal(err)
			}
		}
		c := NewCodec(st)
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
