package enc

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aion/internal/model"
	"aion/internal/strstore"
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
	a.Normalize()
	b.Normalize()
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
	// "Person", "name", "x", "y" = 4 interned strings.
	if c.Strings.Len() != 4 {
		t.Errorf("interned %d strings, want 4", c.Strings.Len())
	}
}

// TestValueEncodingGolden pins the encoded bytes of every value kind to
// those the 104-byte model.Value of PR 18 (6d1dc8a) produced: the in-memory
// layout of a Value must never reach the disk.
func TestValueEncodingGolden(t *testing.T) {
	const golden = "00050901000000000b200000010110000002800000000000000050000003023ff8000000000000fff0000000000000500000040000000005ffffffffffffffffff0140000006030203ffffffffffffffffff014000000700100000087ff8000000000001300000090000000a6000000b030000000c0000000d0000000a6000000e00"
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
	c := newCodec()
	b, err := c.EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != golden {
		t.Fatalf("encoded bytes changed:\n got %s\nwant %s", got, golden)
	}
	dec, err := c.DecodeUpdate(b)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range u.SetProps {
		if got := dec.SetProps[k]; got.Kind() != v.Kind() || got.String() != v.String() {
			t.Errorf("%s decoded as %v %v, want %v %v", k, got.Kind(), got, v.Kind(), v)
		}
	}
	if again, err := c.EncodeUpdate(dec); err != nil || !bytes.Equal(again, b) {
		t.Errorf("re-encoding the decoded update: %x (%v), want %x", again, err, b)
	}
}
