package enc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/testkit/refmodel"
)

func newCodec() *Codec { return NewCodec(strstore.NewMem()) }

func rtUpdate(t *testing.T, c *Codec, u model.Update) model.Update {
	t.Helper()
	b, err := c.EncodeUpdate(u)
	if err != nil {
		t.Fatalf("encode %v: %v", u, err)
	}
	got, err := c.DecodeUpdate(b)
	if err != nil {
		t.Fatalf("decode %v: %v", u, err)
	}
	return got
}

func updatesEqual(a, b model.Update) bool {
	a, b = refmodel.Normalize(a), refmodel.Normalize(b) // sorted copies: the callers' slices keep their order
	if a.TS != b.TS || a.Kind != b.Kind || a.NodeID != b.NodeID ||
		a.RelID != b.RelID || a.Src != b.Src || a.Tgt != b.Tgt || a.RelLabel != b.RelLabel {
		return false
	}
	if !reflect.DeepEqual(a.AddLabels, b.AddLabels) || !reflect.DeepEqual(a.DelLabels, b.DelLabels) {
		return false
	}
	if !a.SetProps.Equal(b.SetProps) {
		return false
	}
	return reflect.DeepEqual(a.DelProps, b.DelProps)
}

func TestUpdateRoundTripAllKinds(t *testing.T) {
	c := newCodec()
	props := model.Properties{
		"i":  model.IntValue(-42),
		"f":  model.FloatValue(2.75),
		"b":  model.BoolValue(true),
		"s":  model.StringValue("neo"),
		"ia": model.IntArrayValue([]int64{1, -2, 3}),
		"fa": model.FloatArrayValue([]float64{0.5, -1.25}),
		"sa": model.StringArrayValue([]string{"x", "y"}),
	}
	cases := []model.Update{
		model.AddNode(1, 7, []string{"Person", "Author"}, props),
		model.DeleteNode(2, 7),
		model.UpdateNode(3, 7, []string{"New"}, []string{"Author"}, model.Properties{"k": model.IntValue(9)}, []string{"i"}),
		model.AddRel(4, 11, 7, 8, "KNOWS", props),
		model.DeleteRel(5, 11, 7, 8),
		model.UpdateRel(6, 11, 7, 8, model.Properties{"w": model.FloatValue(1.5)}, []string{"f"}),
	}
	for _, u := range cases {
		got := rtUpdate(t, c, u)
		if !updatesEqual(u, got) {
			t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", u, got)
		}
	}
}

func TestUpdateRoundTripEmptyPayloads(t *testing.T) {
	c := newCodec()
	u := model.AddNode(1, 1, nil, nil)
	got := rtUpdate(t, c, u)
	if !updatesEqual(u, got) {
		t.Errorf("empty node mismatch: %+v vs %+v", u, got)
	}
	r := model.AddRel(1, 1, 2, 3, "", nil)
	got = rtUpdate(t, c, r)
	if !updatesEqual(r, got) {
		t.Errorf("empty rel mismatch: %+v vs %+v", r, got)
	}
}

func TestDeleteRecordIsSmall(t *testing.T) {
	// Deleted entities require space only for their id and timestamp
	// (plus header); Sec 4.2 footnote 5.
	c := newCodec()
	b, err := c.EncodeUpdate(model.DeleteNode(1000, 123456))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 12 {
		t.Errorf("node tombstone is %d bytes, want <= 12", len(b))
	}
}

func TestDecodeUpdateErrors(t *testing.T) {
	c := newCodec()
	if _, err := c.DecodeUpdate(nil); err == nil {
		t.Error("nil record must fail")
	}
	if _, err := c.DecodeUpdate([]byte{0x00}); err == nil {
		t.Error("truncated record must fail")
	}
	if _, err := c.DecodeUpdate([]byte{0x03, 0x01}); err == nil {
		t.Error("unknown entity type must fail")
	}
}

func TestUpdateRoundTripRandom(t *testing.T) {
	c := newCodec()
	rng := rand.New(rand.NewSource(42))
	labels := []string{"A", "B", "C", "D"}
	keys := []string{"p", "q", "r"}
	for i := 0; i < 2000; i++ {
		var u model.Update
		ts := model.Timestamp(rng.Int63n(1 << 40))
		switch rng.Intn(6) {
		case 0:
			u = model.AddNode(ts, model.NodeID(rng.Int63n(1e6)), []string{labels[rng.Intn(4)]},
				model.Properties{keys[rng.Intn(3)]: model.IntValue(rng.Int63())})
		case 1:
			u = model.DeleteNode(ts, model.NodeID(rng.Int63n(1e6)))
		case 2:
			u = model.UpdateNode(ts, model.NodeID(rng.Int63n(1e6)),
				[]string{labels[rng.Intn(4)]}, nil, nil, []string{keys[rng.Intn(3)]})
		case 3:
			u = model.AddRel(ts, model.RelID(rng.Int63n(1e6)), model.NodeID(rng.Int63n(1e6)),
				model.NodeID(rng.Int63n(1e6)), labels[rng.Intn(4)],
				model.Properties{keys[rng.Intn(3)]: model.FloatValue(rng.Float64())})
		case 4:
			u = model.DeleteRel(ts, model.RelID(rng.Int63n(1e6)), 1, 2)
		case 5:
			u = model.UpdateRel(ts, model.RelID(rng.Int63n(1e6)), 1, 2,
				model.Properties{keys[rng.Intn(3)]: model.StringValue("v")}, nil)
		}
		got := rtUpdate(t, c, u)
		if !updatesEqual(u, got) {
			t.Fatalf("random round trip %d mismatch:\n in: %+v\nout: %+v", i, u, got)
		}
	}
}

func TestStringInterningSharesRefs(t *testing.T) {
	c := newCodec()
	u1 := model.AddNode(1, 1, []string{"Person"}, model.Properties{"name": model.StringValue("x")})
	u2 := model.AddNode(2, 2, []string{"Person"}, model.Properties{"name": model.StringValue("y")})
	b1, _ := c.EncodeUpdate(u1)
	b2, _ := c.EncodeUpdate(u2)
	_ = b1
	_ = b2
	// "Person", "name", "x", "y" = 4 interned strings: refs are positions,
	// so the next string takes ref 4.
	if r, err := c.Strings.Intern("z"); err != nil || r != 4 {
		t.Errorf("interned %d strings (%v), want 4", r, err)
	}
}

// TestValueEncodingGolden pins the encoded bytes of every value kind. The
// fixed-ref codec's are those the 104-byte model.Value of PR 18 (6d1dc8a)
// produced — the in-memory layout of a Value must never reach the disk, and
// the host's records never change; the compact codec's differ from them in the
// refs alone, a byte each here.
func TestValueEncodingGolden(t *testing.T) {
	u := model.AddNode(5, 9, []string{"L"}, model.Properties{
		"b":   model.BoolValue(true),
		"f":   model.FloatValue(math.Copysign(0, -1)),
		"fa":  model.FloatArrayValue([]float64{1.5, math.Inf(-1)}),
		"fa0": model.FloatArrayValue(nil),
		"i":   model.IntValue(math.MinInt64),
		"ia":  model.IntArrayValue([]int64{1, -2, math.MinInt64}),
		"ia0": model.IntArrayValue([]int64{}),
		"nan": model.FloatValue(math.NaN()),
		"s":   model.StringValue("neo"),
		"sa":  model.StringArrayValue([]string{"x", "", "neo"}),
		"sa0": model.StringArrayValue(nil),
	})
	for _, c := range []struct {
		name   string
		codec  *Codec
		golden string
	}{
		{"fixed", NewFixedRefCodec(strstore.NewMem()), "00050901000000000b200000010110000002800000000000000050000003023ff8000000000000fff0000000000000500000040000000005ffffffffffffffffff0140000006030203ffffffffffffffffff014000000700100000087ff8000000000001300000090000000a6000000b030000000c0000000d0000000a6000000e00"},
		{"compact", newCodec(), "00050901000b120121800000000000000035023ff8000000000000fff0000000000000450050ffffffffffffffffff0164030203ffffffffffffffffff01740081017ff80000000000019301a001b60103c001d001a001e60100"},
	} {
		b, err := c.codec.EncodeUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != c.golden {
			t.Fatalf("%s: encoded bytes changed:\n got %s\nwant %s", c.name, got, c.golden)
		}
		dec, err := c.codec.DecodeUpdate(b)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range u.SetProps {
			if got := dec.SetProps[k]; got.Kind() != v.Kind() || got.String() != v.String() {
				t.Errorf("%s: %s decoded as %v %v, want %v %v", c.name, k, got.Kind(), got, v.Kind(), v)
			}
		}
		if again, err := c.codec.EncodeUpdate(dec); err != nil || !bytes.Equal(again, b) {
			t.Errorf("%s: re-encoding the decoded update: %x (%v), want %x", c.name, again, err, b)
		}
	}
}

// decodeStringAllocs is what decoding a relationship with one string property
// allocates: its property map. The string's box is the string table's,
// shared by every decode; with a box of its own per decode it was one more.
const decodeStringAllocs = 2

// TestStringDecodesShareTheTablesBox decodes an update that carries a string
// property: it allocates no box for the string, and two decodes of it return
// equal values that share one.
func TestStringDecodesShareTheTablesBox(t *testing.T) {
	c := newCodec()
	b, err := c.EncodeUpdate(model.AddRel(3, 1, 0, 2, "CITES", model.Properties{"w": model.StringValue("value-0-of-property-chain")}))
	if err != nil {
		t.Fatal(err)
	}
	var u model.Update
	if got := testing.AllocsPerRun(100, func() { u, _ = c.DecodeUpdate(b) }); got != decodeStringAllocs {
		t.Errorf("decoding an update with a string property allocates %v times, want %d", got, decodeStringAllocs)
	}
	v, err := c.DecodeUpdate(b)
	if err != nil {
		t.Fatal(err)
	}
	box := func(v model.Value) uintptr { return reflect.ValueOf(v).FieldByName("b").Pointer() }
	if x, y := u.SetProps["w"], v.SetProps["w"]; !x.Equal(y) || x.Str() != "value-0-of-property-chain" || box(x) != box(y) {
		t.Errorf("two decodes of one string: %v and %v in boxes %#x and %#x, want equal values in one box", x, y, box(x), box(y))
	}
}

// TestRefsFailClosed: a record whose refs the encoder would not have written
// is a decode error — a ref that is not the minimal uvarint, an id past
// strstore.MaxRef, a label ref carrying a type tag, and a relationship label,
// string value or string-array element carrying any flag — while the same
// record with the ref as the encoder writes it decodes.
func TestRefsFailClosed(t *testing.T) {
	c := fuzzCodec(t) // "Person" is ref 0, "s" ref 4, "x" ref 10
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	node := []byte{0x00, 5, 1}      // node 1 at ts 5
	rel := []byte{0x01, 5, 4, 1, 2} // relationship 4 at ts 5, from 1 to 2
	noProps := []byte{0}
	for _, tc := range []struct {
		name      string
		good, bad []byte
	}{
		{"non-minimal ref", cat(node, []byte{1, 0x00}, noProps), cat(node, []byte{1, 0x80, 0x00}, noProps)},
		{"id past MaxRef", nil, cat(node, []byte{1}, uv((strstore.MaxRef+1)<<4), noProps)}, // MaxRef itself: below
		{"id that truncates to a table's ref", cat(node, []byte{1}, uv(0), noProps), cat(node, []byte{1}, uv(1<<32<<4), noProps)},
		{"label ref with a type", cat(node, []byte{1}, uv(0|refDeletedBit), noProps), cat(node, []byte{1}, uv(0|3), noProps)},
		{"relationship label with a flag", cat(rel, uv(0), noProps), cat(rel, uv(0|refDeletedBit), noProps)},
		{"string value with the deleted bit", cat(node, []byte{0, 1}, uv(4<<4|3), uv(10<<4)), cat(node, []byte{0, 1}, uv(4<<4|3), uv(10<<4|refDeletedBit))},
		{"string value with a type", cat(node, []byte{0, 1}, uv(4<<4|3), uv(10<<4)), cat(node, []byte{0, 1}, uv(4<<4|3), uv(10<<4|3))},
		{"string-array element with a flag", cat(node, []byte{0, 1}, uv(4<<4|6), []byte{2}, uv(10<<4), uv(0)), cat(node, []byte{0, 1}, uv(4<<4|6), []byte{2}, uv(10<<4), uv(0|1))},
	} {
		if _, err := c.DecodeUpdate(tc.good); tc.good != nil && err != nil {
			t.Errorf("%s: the well-formed record %x: %v", tc.name, tc.good, err)
		}
		if u, err := c.DecodeUpdate(tc.bad); err == nil {
			t.Errorf("%s: %x decoded to %v", tc.name, tc.bad, u)
		}
	}
	// MaxRef is a ref the parser accepts and no table this small resolves.
	if _, err := c.DecodeUpdate(cat(node, []byte{1}, uv(strstore.MaxRef<<4), noProps)); err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Errorf("ref MaxRef fails as %v, want a lookup past the table", err)
	}
}
