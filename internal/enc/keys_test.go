package enc

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"aion/internal/model"
)

// keyEdges are the component values where the encoding changes length or the
// int64 → uint64 cast changes sign: TSInfinity, then the negative timestamps.
var keyEdges = []uint64{0, 1, 255, 256, 65535, 65536, 1<<32 - 1, 1 << 32, 1<<56 - 1, 1 << 56,
	uint64(model.TSInfinity), 1 << 63, math.MaxUint64 - 1, math.MaxUint64}

// keyTuples generates pairs of 4-tuples for quick.Check: components are edge
// values or of a uniformly chosen byte width, and the second tuple shares a
// random-length prefix with the first so that ties in the leading components
// are common.
func keyTuples(args []reflect.Value, rng *rand.Rand) {
	var t [2][4]uint64
	for i := range t {
		for j := range t[i] {
			if rng.Intn(3) == 0 {
				t[i][j] = keyEdges[rng.Intn(len(keyEdges))]
			} else {
				t[i][j] = rng.Uint64() >> (8 * rng.Intn(8))
			}
		}
	}
	copy(t[1][:rng.Intn(5)], t[0][:])
	args[0], args[1] = reflect.ValueOf(t[0]), reflect.ValueOf(t[1])
}

// TestKeyOrderMatchesTupleOrder: byte-wise comparison of two keys of a kind
// is the comparison of their component tuples as unsigned numbers — the order
// the fixed-width big-endian keys before ALC2 had, negative timestamps last.
func TestKeyOrderMatchesTupleOrder(t *testing.T) {
	kinds := []struct {
		name  string
		arity int
		key   func(v [4]uint64) []byte
	}{
		{"KeyNode", 2, func(v [4]uint64) []byte { return KeyNode(model.NodeID(v[0]), model.Timestamp(v[1])) }},
		{"KeyRel", 2, func(v [4]uint64) []byte { return KeyRel(model.RelID(v[0]), model.Timestamp(v[1])) }},
		{"KeyNeigh4", 4, func(v [4]uint64) []byte {
			return KeyNeigh4(model.NodeID(v[0]), model.NodeID(v[1]), model.Timestamp(v[2]), model.RelID(v[3]))
		}},
	}
	for _, kind := range kinds {
		f := func(a, b [4]uint64) bool {
			return bytes.Compare(kind.key(a), kind.key(b)) == slices.Compare(a[:kind.arity], b[:kind.arity])
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20000, Values: keyTuples}); err != nil {
			t.Errorf("%s: %v", kind.name, err)
		}
	}
}

// TestNeighKeysLieInPrefixRange: the scan bounds the neighbour queries use
// hold exactly node a's entries.
func TestNeighKeysLieInPrefixRange(t *testing.T) {
	f := func(x, y [4]uint64) bool {
		a := model.NodeID(x[0])
		if a == -1 {
			a-- // the largest key component: a+1 wraps to 0, as it did with fixed-width keys
		}
		lo, hi := AppendKeyNeighPrefix(nil, a), AppendKeyNeighPrefix(nil, a+1)
		k := KeyNeigh4(a, model.NodeID(x[1]), model.Timestamp(x[2]), model.RelID(x[3]))
		in := bytes.HasPrefix(k, lo) && bytes.Compare(lo, k) <= 0 && bytes.Compare(k, hi) < 0
		// and a key of any other node lies outside
		o := KeyNeigh4(model.NodeID(y[0]), model.NodeID(y[1]), model.Timestamp(y[2]), model.RelID(y[3]))
		out := bytes.Compare(o, lo) < 0 || bytes.Compare(o, hi) >= 0
		return in && (out || model.NodeID(y[0]) == a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000, Values: keyTuples}); err != nil {
		t.Error(err)
	}
}

func TestKeyParseRoundTrip(t *testing.T) {
	for _, a := range keyEdges {
		for _, b := range keyEdges {
			// The two version trees share one key format.
			for _, k := range [][]byte{KeyNode(model.NodeID(a), model.Timestamp(b)), KeyRel(model.RelID(a), model.Timestamp(b))} {
				id, ts, ok := ParseKeyVersion(k)
				if !ok || uint64(id) != a || uint64(ts) != b {
					t.Errorf("version key (%d, %d) = %x parsed as (%d, %d, %v)", a, b, k, id, ts, ok)
				}
			}
			x, y, nts, rel, ok := ParseKeyNeigh4(KeyNeigh4(model.NodeID(a), model.NodeID(b), model.Timestamp(a), model.RelID(b)))
			if !ok || uint64(x) != a || uint64(y) != b || uint64(nts) != a || uint64(rel) != b {
				t.Errorf("neigh key (%d, %d, %d, %d) parsed as (%d, %d, %d, %d, %v)", a, b, a, b, x, y, nts, rel, ok)
			}
		}
	}
	if v := NeighValue(true); len(v) != 1 || !ParseNeighValue(v) {
		t.Errorf("deleted neigh value %x", v)
	}
	if v := NeighValue(false); len(v) != 1 || ParseNeighValue(v) {
		t.Errorf("live neigh value %x", v)
	}
}

// TestKeyEncodingGolden pins the bytes of every key kind and both neighbour
// values: they are a disk format (the LineageStore's trees since ALC2).
func TestKeyEncodingGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"KeyNode(0, 0)", KeyNode(0, 0), "0000"},
		{"KeyNode(255, 256)", KeyNode(255, 256), "01ff020100"},
		{"KeyNode(14999, 202499)", KeyNode(14999, 202499), "023a9703031703"},
		{"KeyRel(1<<32, TSInfinity)", KeyRel(1<<32, model.TSInfinity), "050100000000087fffffffffffffff"},
		{"KeyRel(7, -1)", KeyRel(7, -1), "010708ffffffffffffffff"},
		{"KeyNeighPrefix(300)", AppendKeyNeighPrefix(nil, 300), "02012c"},
		{"KeyNeigh4(300, 0, 70000, 1<<56)", KeyNeigh4(300, 0, 70000, 1<<56), "02012c0003011170080100000000000000"},
		{"NeighValue(false)", NeighValue(false), "00"},
		{"NeighValue(true)", NeighValue(true), "01"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
}

// foreignKeys are byte strings no Key* function writes: what a torn or
// foreign tree page may hold where a key is expected.
var foreignKeys = [][]byte{
	nil,
	{},
	{9},                            // a length byte over 8
	{0xff, 1, 2, 3},                //
	{2, 1},                         // cut inside a component
	{1, 5},                         // cut after the first component
	{1, 5, 0, 0},                   // trailing bytes after a node key
	{1, 0, 0},                      // a leading zero byte: not canonical
	{1, 5, 2, 0, 7},                //
	{1, 5, 1, 6, 1, 7},             // a neighbour key cut after three components
	{1, 5, 1, 6, 1, 7, 1, 8, 0},    // trailing byte after a neighbour key
	bytes.Repeat([]byte{0}, 16),    // a fixed-width node key of the ALC1 trees
	bytes.Repeat([]byte{0, 1}, 16), // and a neighbour key
}

// FuzzParseKeys (a leg of `make fuzz-smoke`; plain `go test` runs its seeds):
// the key parsers read B+Tree pages that carry no checksum, so on arbitrary
// bytes they must not panic, must return zeros with ok=false, and whatever
// they accept must be exactly the bytes the encoder writes for the parsed
// components.
func FuzzParseKeys(f *testing.F) {
	for _, k := range foreignKeys {
		f.Add(k)
	}
	f.Add(KeyNode(14999, 202499))
	f.Add(KeyRel(1<<32, model.TSInfinity))
	f.Add(KeyNeigh4(300, 0, 70000, 1<<56))
	f.Add(KeyNeigh4(-1, 1, math.MinInt64, 2))
	f.Fuzz(func(t *testing.T, k []byte) {
		id, ts, ok := ParseKeyVersion(k)
		if ok != bytes.Equal(k, AppendKeyVersion(nil, id, ts)) || !ok && (id != 0 || ts != 0) {
			t.Fatalf("ParseKeyVersion(%x) = (%d, %d, %v)", k, id, ts, ok)
		}
		if ok && !(bytes.Equal(k, KeyNode(model.NodeID(id), ts)) && bytes.Equal(k, KeyRel(model.RelID(id), ts))) {
			t.Fatalf("KeyNode and KeyRel of (%d, %d) are not the version key %x", id, ts, k)
		}
		a, b, nts, rel, ok := ParseKeyNeigh4(k)
		if ok != bytes.Equal(k, KeyNeigh4(a, b, nts, rel)) || !ok && (a != 0 || b != 0 || nts != 0 || rel != 0) {
			t.Fatalf("ParseKeyNeigh4(%x) = (%d, %d, %d, %d, %v)", k, a, b, nts, rel, ok)
		}
		if ok && !bytes.HasPrefix(k, AppendKeyNeighPrefix(nil, a)) {
			t.Fatalf("key %x of node %d lacks the prefix %x", k, a, AppendKeyNeighPrefix(nil, a))
		}
		_ = ParseNeighValue(k)
	})
}

// KeyNeigh4 encodes a neighbourhood key: (aId, bId, ts, relId).
func KeyNeigh4(a, b model.NodeID, ts model.Timestamp, rel model.RelID) []byte {
	return AppendKeyNeigh4(make([]byte, 0, 36), a, b, ts, rel)
}
