package enc

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"aion/internal/model"
)

func TestDecodeUpdatesRoundTrip(t *testing.T) {
	c := newCodec()
	var us []model.Update
	for i := 0; i < 50; i++ {
		us = append(us, model.AddNode(model.Timestamp(i+1), model.NodeID(i),
			[]string{"N"}, model.Properties{"i": model.IntValue(int64(i))}))
	}
	var payloads [][]byte
	for _, u := range us {
		b, err := c.EncodeUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, b)
	}
	got, err := c.DecodeUpdates(nil, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(us) {
		t.Fatalf("decoded %d, want %d", len(got), len(us))
	}
	for i, u := range got {
		if u.NodeID != us[i].NodeID || u.TS != us[i].TS || u.SetProps["i"].Int() != int64(i) {
			t.Fatalf("update %d decoded as %+v", i, u)
		}
	}
	// Appending into a prefilled dst preserves the prefix.
	got2, err := c.DecodeUpdates(got[:2:2], payloads[2:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(us) || got2[0].NodeID != 0 || got2[2].NodeID != 2 {
		t.Fatalf("prefix append broken: len %d", len(got2))
	}
}

func TestDecodeUpdatesError(t *testing.T) {
	c := newCodec()
	good, _ := c.EncodeUpdate(model.AddNode(1, 1, nil, nil))
	dst, err := c.DecodeUpdates(nil, [][]byte{good, {}, good})
	if err == nil {
		t.Fatal("empty record must fail")
	}
	if len(dst) != 1 {
		t.Errorf("prefix before the error must be returned, got %d", len(dst))
	}
}

// TestDecodeUpdatesConcurrent decodes the same batch from many goroutines,
// the access pattern of the snapshot-load worker stage (run with -race).
func TestDecodeUpdatesConcurrent(t *testing.T) {
	c := newCodec()
	var payloads [][]byte
	for i := 0; i < 200; i++ {
		b, _ := c.EncodeUpdate(model.AddNode(model.Timestamp(i+1), model.NodeID(i),
			[]string{"N", "M"}, model.Properties{"s": model.StringValue("v")}))
		payloads = append(payloads, b)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			us, err := c.DecodeUpdates(nil, payloads)
			if err != nil || len(us) != len(payloads) {
				t.Errorf("concurrent decode: %d updates, err %v", len(us), err)
			}
		}()
	}
	wg.Wait()
}

// TestBlockRoundTrip checks the block encoder against the per-update encoder
// (a block is its count and the records back to back) and the block decoder
// (symmetry, appending to a prefilled dst), and the two peeks against both.
func TestBlockRoundTrip(t *testing.T) {
	c := newCodec()
	us := []model.Update{
		model.AddNode(1, 1, []string{"A"}, model.Properties{"x": model.IntValue(9)}),
		model.AddRel(2, 1, 1, 1, "KNOWS", model.Properties{"w": model.StringValue("v")}),
		model.UpdateNode(3, 1, []string{"B"}, nil, model.Properties{"x": model.IntValue(10)}, nil),
		model.DeleteRel(4, 1, 1, 1),
		model.DeleteNode(5, 1),
	}
	block, err := c.AppendBlock([]byte("prefix"), us)
	if err != nil {
		t.Fatal(err)
	}
	block = block[len("prefix"):]
	want := []byte{byte(len(us))}
	for _, u := range us {
		if want, err = c.AppendUpdate(want, u); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(block, want) {
		t.Fatalf("block %x, want the count and the records: %x", block, want)
	}
	if n, ts, err := PeekBlock(block); n != len(us) || ts != 1 || err != nil {
		t.Fatalf("PeekBlock = %d, %d, %v", n, ts, err)
	}
	got, err := c.DecodeBlock(us[:1:1], block)
	if err != nil || len(got) != 1+len(us) {
		t.Fatalf("decoded %d updates after the prefix, err %v", len(got)-1, err)
	}
	for i, u := range got[1:] {
		if u.Kind != us[i].Kind || u.TS != us[i].TS {
			t.Fatalf("update %d decoded as %+v, want %+v", i, u, us[i])
		}
	}
}

// TestBlockRejectsCountMismatch: a block decodes only when its count names
// exactly the records that follow it — one more, one fewer, a torn last
// record, a byte past the last one, and the empty block all fail — and an
// encoder error fails the whole block.
func TestBlockRejectsCountMismatch(t *testing.T) {
	c := newCodec()
	us := []model.Update{model.AddNode(1, 1, nil, nil), model.AddNode(1, 2, []string{"N"}, nil)}
	block, err := c.AppendBlock(nil, us)
	if err != nil {
		t.Fatal(err)
	}
	recs := block[1:]
	for name, b := range map[string][]byte{
		"count one more":  append([]byte{3}, recs...),
		"count one fewer": append([]byte{1}, recs...),
		"torn record":     block[:len(block)-1],
		"trailing byte":   append(slices.Clip(block), 0),
		"empty block":     {0},
		"no count":        nil,
	} {
		if got, err := c.DecodeBlock(nil, b); err == nil {
			t.Errorf("%s: decoded %d updates without error", name, len(got))
		}
	}
	if _, _, err := PeekBlock([]byte{200, 1}); err == nil {
		t.Error("a count the bytes cannot hold passed PeekBlock")
	}
	bad := []model.Update{model.AddNode(1, 1, nil, nil), {Kind: model.OpKind(99)}}
	if _, err := c.AppendBlock(nil, bad); err == nil {
		t.Fatal("unknown op kind must fail the whole block")
	}
}
