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
		{"KeyIncident", 3, func(v [4]uint64) []byte {
			return KeyIncident(model.NodeID(v[0]), model.RelID(v[1]), model.Timestamp(v[2]))
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

// TestNeighKeysLieInPrefixRange: the scan bounds the incident-tree reads use
// hold exactly node a's entries, and within them relationship r's: the bare
// prefixes sort below every key they prefix, and the key with timestamp -1
// (the largest) above every other of r's.
func TestNeighKeysLieInPrefixRange(t *testing.T) {
	f := func(x, y [4]uint64) bool {
		a, r := model.NodeID(x[0]), model.RelID(x[1])
		if a == -1 {
			a-- // the largest key component: a+1 wraps to 0, as it did with fixed-width keys
		}
		lo, hi := AppendKeyPrefix(nil, int64(a)), AppendKeyPrefix(nil, int64(a+1))
		k := KeyIncident(a, r, model.Timestamp(x[2]))
		in := bytes.HasPrefix(k, lo) && bytes.Compare(lo, k) <= 0 && bytes.Compare(k, hi) < 0
		rp := incidentPrefix(a, r)
		in = in && bytes.HasPrefix(k, rp) && bytes.Compare(rp, k) < 0 && bytes.Compare(k, KeyIncident(a, r, -1)) <= 0
		// and a key of any other node lies outside
		o := KeyIncident(model.NodeID(y[0]), model.RelID(y[1]), model.Timestamp(y[2]))
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
			// The node tree and the benchmark's probe keys share one format.
			for _, k := range [][]byte{KeyNode(model.NodeID(a), model.Timestamp(b)), KeyRel(model.RelID(a), model.Timestamp(b))} {
				id, ts, ok := ParseKeyVersion(k)
				if !ok || uint64(id) != a || uint64(ts) != b {
					t.Errorf("version key (%d, %d) = %x parsed as (%d, %d, %v)", a, b, k, id, ts, ok)
				}
			}
			k := KeyIncident(model.NodeID(a), model.RelID(b), model.Timestamp(a))
			x, rel, nts, ok := ParseKeyIncident(k)
			if !ok || uint64(x) != a || uint64(rel) != b || uint64(nts) != a {
				t.Errorf("incident key (%d, %d, %d) parsed as (%d, %d, %d, %v)", a, b, a, x, rel, nts, ok)
			}
			p := incidentPrefix(model.NodeID(a), model.RelID(b))
			if ts, ok := ParseKeyTS(k[len(p):]); !ok || uint64(ts) != a || !bytes.HasPrefix(k, p) {
				t.Errorf("incident key %x after its prefix %x parsed as ts %d, %v", k, p, ts, ok)
			}
			for _, deleted := range []bool{false, true} {
				if b >= 1<<62 {
					break // not a node id: the flag takes the top bit
				}
				v := AppendIncomingValue(nil, deleted, model.NodeID(b))
				d, src, ok := ParseIncomingValue(v)
				if !ok || d != deleted || uint64(src) != b {
					t.Errorf("incoming value (%v, %d) = %x parsed as (%v, %d, %v)", deleted, b, v, d, src, ok)
				}
			}
		}
	}
}

// TestKeyEncodingGolden pins the bytes of every key kind and the in.idx
// value: they are a disk format (the LineageStore's trees; the incident keys
// and the value since ALC5).
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
		{"KeyPrefix(300)", AppendKeyPrefix(nil, 300), "02012c"},
		{"KeyPrefix(300, 0)", incidentPrefix(300, 0), "02012c00"},
		{"KeyIncident(300, 1<<56, 70000)", KeyIncident(300, 1<<56, 70000), "02012c08010000000000000003011170"},
		{"IncomingValue(false, 300)", AppendIncomingValue(nil, false, 300), "d804"},
		{"IncomingValue(true, 0)", AppendIncomingValue(nil, true, 0), "01"},
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
	{1, 5, 1, 6},                   // an incident key cut after two components
	{1, 5, 1, 6, 1, 7, 0},          // trailing byte after an incident key
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
	f.Add(KeyIncident(300, 1<<56, 70000))
	f.Add(KeyIncident(-1, 1, math.MinInt64))
	f.Fuzz(func(t *testing.T, k []byte) {
		id, ts, ok := ParseKeyVersion(k)
		if ok != bytes.Equal(k, KeyNode(model.NodeID(id), ts)) || !ok && (id != 0 || ts != 0) {
			t.Fatalf("ParseKeyVersion(%x) = (%d, %d, %v)", k, id, ts, ok)
		}
		if ok && !(bytes.Equal(k, KeyNode(model.NodeID(id), ts)) && bytes.Equal(k, KeyRel(model.RelID(id), ts))) {
			t.Fatalf("KeyNode and KeyRel of (%d, %d) are not the version key %x", id, ts, k)
		}
		a, rel, nts, ok := ParseKeyIncident(k)
		if ok != bytes.Equal(k, KeyIncident(a, rel, nts)) || !ok && (a != 0 || rel != 0 || nts != 0) {
			t.Fatalf("ParseKeyIncident(%x) = (%d, %d, %d, %v)", k, a, rel, nts, ok)
		}
		if ok && !bytes.HasPrefix(k, incidentPrefix(a, rel)) {
			t.Fatalf("key %x of (%d, %d) lacks the prefix %x", k, a, rel, incidentPrefix(a, rel))
		}
		if deleted, src, ok := ParseIncomingValue(k); ok && !bytes.Equal(k, AppendIncomingValue(nil, deleted, src)) {
			t.Fatalf("ParseIncomingValue(%x) = (%v, %d) does not re-encode", k, deleted, src)
		}
	})
}

// KeyIncident encodes an incident-tree key: (aId, relId, ts).
func KeyIncident(a model.NodeID, rel model.RelID, ts model.Timestamp) []byte {
	return AppendKeyIncident(make([]byte, 0, 27), a, rel, ts)
}

// ParseKeyVersion decodes a key written by KeyNode or KeyRel; ok is false, and
// the rest zero, for bytes it cannot have written.
func ParseKeyVersion(k []byte) (id int64, ts model.Timestamp, ok bool) {
	a, k, _ := readUint(k)
	t, k, ok := readUint(k)
	if !ok || len(k) != 0 {
		return 0, 0, false
	}
	return int64(a), model.Timestamp(t), true
}

// incidentPrefix is the (a, rel) prefix of rel's keys under a in an incident tree.
func incidentPrefix(a model.NodeID, rel model.RelID) []byte {
	return AppendKeyPrefix(AppendKeyPrefix(nil, int64(a)), int64(rel))
}
