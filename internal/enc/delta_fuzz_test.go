package enc

import (
	"bytes"
	"testing"

	"aion/internal/model"
)

// seedDeltaHeaders covers both kinds and the boundary values the partition
// chain actually produces: the -1 entry position of a genesis partition,
// zero and large sequence numbers, and a large log offset.
func seedDeltaHeaders() []DeltaHeader {
	return []DeltaHeader{
		{Kind: DeltaFull, TS: -1, Seq: 0, LogOff: 0, Count: 0},
		{Kind: DeltaFull, TS: 1 << 40, Seq: 7, LogOff: 1 << 33, Count: 12345},
		{Kind: DeltaDiff, TS: 10, Seq: 3, BaseTS: 9, BaseSeq: 0, LogOff: 512, Count: 4},
		{Kind: DeltaDiff, TS: 10, Seq: 9, BaseTS: 10, BaseSeq: 3, LogOff: 640, Count: 1},
		{Kind: DeltaDiff, TS: 2, Seq: 0, BaseTS: -1, BaseSeq: 0, LogOff: 64, Count: 2},
	}
}

// FuzzDecodeDelta is the delta-snapshot leg of `make fuzz-smoke`: recovery
// reads chain-file headers straight off disk (possibly torn or mutated), so
// DecodeDeltaHeader must never panic, and every header it accepts must
// round-trip canonically — re-encoding the decoded header reproduces the
// accepted bytes exactly.
func FuzzDecodeDelta(f *testing.F) {
	for _, h := range seedDeltaHeaders() {
		f.Add(AppendDeltaHeader(nil, h))
	}
	f.Add([]byte{})
	f.Add([]byte{'A', 'D', 'S', '2'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := DecodeDeltaHeader(b)
		if err != nil {
			return
		}
		enc1 := AppendDeltaHeader(nil, h)
		if !bytes.Equal(enc1, b) {
			t.Fatalf("accepted header is not canonical:\n  input    %x\n  re-coded %x", b, enc1)
		}
		h2, err := DecodeDeltaHeader(enc1)
		if err != nil {
			t.Fatalf("re-decode of accepted header %+v: %v", h, err)
		}
		if h2 != h {
			t.Fatalf("round-trip changed header: %+v vs %+v", h, h2)
		}
	})
}

// TestDeltaHeaderRejects pins the defensive-decode guarantees the fuzzer
// explores: truncation at every length, wrong magic, bad kind, out-of-range
// sequence, and a delta whose base is not strictly before its position.
func TestDeltaHeaderRejects(t *testing.T) {
	full := AppendDeltaHeader(nil, DeltaHeader{
		Kind: DeltaDiff, TS: 99, Seq: 2, BaseTS: 98, BaseSeq: 5, LogOff: 1024, Count: 3})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeDeltaHeader(full[:cut]); err == nil {
			t.Fatalf("truncated header (%d bytes) decoded without error", cut)
		}
	}
	if _, err := DecodeDeltaHeader(append([]byte("XXXX"), full[4:]...)); err == nil {
		t.Fatal("wrong magic accepted")
	}
	bad := append([]byte(nil), full...)
	bad[4] = 7 // unknown kind
	if _, err := DecodeDeltaHeader(bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := DecodeDeltaHeader(append(append([]byte(nil), full...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A delta based at its own position is impossible.
	selfBased := AppendDeltaHeader(nil, DeltaHeader{
		Kind: DeltaDiff, TS: 5, Seq: 1, BaseTS: 5, BaseSeq: 1, LogOff: 1, Count: 1})
	if _, err := DecodeDeltaHeader(selfBased); err == nil {
		t.Fatal("self-based delta accepted")
	}
	// Non-minimal varint (0xff 0x00 is a two-byte spelling of 0x7f): the
	// same header must not be reachable from two different byte strings.
	canon := AppendDeltaHeader(nil, DeltaHeader{Kind: DeltaFull, TS: 0x7f})
	padded := append(append([]byte(nil), canon[:5]...), 0xff, 0x00)
	padded = append(padded, canon[6:]...)
	if _, err := DecodeDeltaHeader(canon); err != nil {
		t.Fatalf("canonical header rejected: %v", err)
	}
	if _, err := DecodeDeltaHeader(padded); err == nil {
		t.Fatal("non-minimal varint accepted")
	}
	// Round-trip of the genesis entry position (-1).
	entry := AppendDeltaHeader(nil, DeltaHeader{Kind: DeltaFull, TS: -1})
	h, err := DecodeDeltaHeader(entry)
	if err != nil {
		t.Fatal(err)
	}
	if h.TS != model.Timestamp(-1) {
		t.Fatalf("entry ts round-tripped to %d", h.TS)
	}
}
