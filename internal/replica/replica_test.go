package replica

import (
	"bytes"
	"encoding/hex"
	"errors"
	"expvar"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"aion/internal/aion"
	"aion/internal/bolt"
	"aion/internal/cypher"
	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/system"
	"aion/internal/testkit/vfstest"
	"aion/internal/vfs"
	"aion/internal/wal"
)

// openNode opens one system (primary or follower) on fs under dir.
func openNode(t *testing.T, fs vfs.FS, dir string, asReplica bool) *system.System {
	t.Helper()
	s, err := system.Open(system.Options{
		Dir: dir, SyncCommits: true, Replica: asReplica, FS: fs,
		Aion: aion.Options{SnapshotEveryOps: 1 << 30},
	})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return s
}

// registered reads the replication Stats that the component named by key
// added to sys's metrics registry.
func registered(t *testing.T, sys *system.System, key string) Stats {
	t.Helper()
	v, ok := sys.Metrics.Get(key).(expvar.Func)
	if !ok {
		t.Fatalf("no %q in the metrics registry", key)
	}
	return v.Value().(Stats)
}

// drive commits txns deterministic transactions on the primary: each adds
// node i+1 (1-based), links it to its predecessor, and bumps a property on
// an earlier node. Returns the acked commit timestamps.
func drive(t *testing.T, s *system.System, txns int) []model.Timestamp {
	t.Helper()
	var acked []model.Timestamp
	for i := 0; i < txns; i++ {
		id := model.NodeID(i + 1)
		ts, err := s.Host.Run(func(tx *hostdb.Tx) error {
			if err := tx.CreateNodeWithID(id, []string{"P"}, model.Properties{"i": model.IntValue(int64(i))}); err != nil {
				return err
			}
			if i > 0 {
				if err := tx.CreateRelWithID(model.RelID(i), id-1, id, "NEXT",
					model.Properties{"w": model.IntValue(int64(i))}); err != nil {
					return err
				}
				return tx.SetNodeProps(model.NodeID(i), model.Properties{"seen": model.IntValue(int64(i))}, nil)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		acked = append(acked, ts)
	}
	return acked
}

// pump ships from src to app until the stream has no durable bytes left.
func pump(src *Source, app *Applier, maxBytes int) error {
	for {
		so, to := app.Offsets()
		sh, err := src.Shipment(so, to, maxBytes)
		if err != nil {
			return err
		}
		if sh.Empty() {
			return nil
		}
		if err := app.Apply(sh); err != nil {
			return err
		}
	}
}

func readFile(t *testing.T, fs vfs.FS, path string) []byte {
	t.Helper()
	f, err := fs.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	n, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, n)
	if n > 0 {
		if _, err := f.ReadAt(b, 0); err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
	}
	return b
}

// message is what encode and decode work on: a Request, Shipment or Heartbeat.
type message interface{ fields() []any }

// wireFixture is a message with its message byte.
type wireFixture struct {
	typ byte
	msg message
}

// wireFixtures are one Request, Shipment and Heartbeat: the codec tests'
// fixtures.
func wireFixtures() []wireFixture {
	return []wireFixture{
		{bolt.MsgReplicate, &Request{StrOff: 7, TxnOff: 9, Epoch: 3,
			StrTailLen: 7, TxnTailLen: 9, StrTailCRC: 0xdeadbeef, TxnTailCRC: 0x1234}},
		{bolt.MsgRepBatch, &Shipment{Epoch: 2, StrOff: 17, Strings: []byte("\x03\x00\x00\x00abc"),
			TxnOff: 400, Txn: wal.AppendRecord(wal.AppendRecord(nil, []byte{1, 2, 3}), []byte{9}),
			StrDurable: 24, TxnDurable: 512, LatestTS: 42}},
		{bolt.MsgRepHeartbeat, &Heartbeat{Epoch: 5, StrDurable: 1, TxnDurable: 2, LatestTS: 3}},
	}
}

// decodeAs decodes b, a message after its type byte, into a new value of m's
// type.
func decodeAs(m message, b []byte) (message, error) {
	got := reflect.New(reflect.TypeOf(m).Elem()).Interface().(message)
	return got, decode(b, got.fields())
}

func TestShipmentCodecRoundtrip(t *testing.T) {
	for _, w := range wireFixtures() {
		b := encode(w.typ, w.msg.fields())
		if b[0] != w.typ {
			t.Errorf("%T: message byte 0x%x, want 0x%x", w.msg, b[0], w.typ)
		}
		if got, err := decodeAs(w.msg, b[1:]); err != nil || !reflect.DeepEqual(got, w.msg) {
			t.Errorf("%T roundtrip: %+v %v", w.msg, got, err)
		}
	}
}

// TestDamagedMessagesFailTheirCheck: one damaged byte anywhere after a
// message's type byte fails its record's check. Unchecked, a heartbeat with
// epoch 5 and its byte 1 flipped decoded as epoch 69: the follower persisted
// it, and its next request made a healthy primary demote itself.
func TestDamagedMessagesFailTheirCheck(t *testing.T) {
	for _, w := range wireFixtures() {
		b := encode(w.typ, w.msg.fields())
		for i := 1; i < len(b); i++ {
			for _, flip := range []byte{0x01, 0x40, 0xff} {
				bad := append([]byte(nil), b...)
				bad[i] ^= flip
				if got, err := decodeAs(w.msg, bad[1:]); !errors.Is(err, ErrCRC) {
					t.Errorf("%T with byte %d ^ 0x%x: %+v, %v; want ErrCRC", w.msg, i, flip, got, err)
				}
			}
		}
	}
}

// TestMessageGolden pins the replication wire format byte for byte: its type
// byte, then one wal record of the fields as uvarints. There is no migration:
// a primary and its followers upgrade together, so a change here is a format
// change every node takes at once.
func TestMessageGolden(t *testing.T) {
	want := []string{
		"600c00000001e859a907090307effdb6f50d09b424",
		"61250000007f2cbefc02110703000000616263900314030000001d80bc55010203010000002957deab091880042a",
		"6204000000217667bc05010203",
	}
	for i, w := range wireFixtures() {
		if got := hex.EncodeToString(encode(w.typ, w.msg.fields())); got != want[i] {
			t.Errorf("%T encodes as\n%s\nwant\n%s", w.msg, got, want[i])
		}
	}
}

// FuzzDecodeMessages feeds the decoder arbitrary bytes as each message type:
// it must never panic, and a message that decodes re-encodes to the same
// bytes.
func FuzzDecodeMessages(f *testing.F) {
	fixtures := wireFixtures()
	for _, w := range fixtures {
		b := encode(w.typ, w.msg.fields())
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, w := range fixtures {
			if len(b) == 0 || b[0] != w.typ {
				continue
			}
			if m, err := decodeAs(w.msg, b[1:]); err == nil {
				if got := encode(w.typ, m.fields()); !bytes.Equal(got, b) {
					t.Fatalf("% x decodes as %T, and re-encodes as % x", b, m, got)
				}
			}
		}
	})
}

func TestReplicationConvergence(t *testing.T) {
	pfs, ffs := vfstest.NewFaultFS(), vfstest.NewFaultFS()
	p := openNode(t, pfs, "primary", false)
	defer p.Close()
	f := openNode(t, ffs, "follower", true)
	defer f.Close()

	drive(t, p, 20)
	src := NewSource(p)
	app := NewApplier(f)
	// Tiny shipments force many rounds (strings-only rounds included).
	if err := pump(src, app, 1); err != nil {
		t.Fatal(err)
	}

	if wm := app.Watermark(); wm != p.Host.Clock() {
		t.Fatalf("watermark %d, primary clock %d", wm, p.Host.Clock())
	}
	pn, pr := p.Host.Counts()
	fn, fr := f.Host.Counts()
	if pn != fn || pr != fr {
		t.Fatalf("follower %d nodes/%d rels, primary %d/%d", fn, fr, pn, pr)
	}

	// Byte identity: the follower's log and string table are exactly the
	// primary's durable prefixes (equal here, since everything is synced).
	for _, name := range []string{"neostore.transaction.db", "host-strings.db"} {
		pb := readFile(t, pfs, "primary/"+name)
		fb := readFile(t, ffs, "follower/"+name)
		if string(pb) != string(fb) {
			t.Fatalf("%s differs: primary %d bytes, follower %d bytes", name, len(pb), len(fb))
		}
	}

	// The follower's Aion saw every commit.
	if err := f.Aion.WaitSync(); err != nil {
		t.Fatal(err)
	}
	if got := f.Aion.LatestTimestamp(); got != p.Host.Clock() {
		t.Fatalf("follower aion at ts %d, primary clock %d", got, p.Host.Clock())
	}

	// Local writes are rejected; the watermark gate rejects the future.
	_, err := f.Host.Run(func(tx *hostdb.Tx) error {
		_, err := tx.CreateNode(nil, nil)
		return err
	})
	if !errors.Is(err, hostdb.ErrReplicaReadOnly) {
		t.Fatalf("replica write: %v", err)
	}
	asOf := "USE aion FOR SYSTEM_TIME AS OF $t MATCH (n:P) RETURN n"
	at := func(ts model.Timestamp) map[string]model.Value {
		return map[string]model.Value{"t": model.IntValue(int64(ts))}
	}
	if err := app.Gate(mustParse(t, asOf), at(app.Watermark())); err != nil {
		t.Fatalf("read at watermark rejected: %v", err)
	}
	if got := gateCode(t, app.Gate(mustParse(t, asOf), at(app.Watermark()+1))); got != bolt.FailReplicaLag {
		t.Fatalf("read above watermark = 0x%x, want FailReplicaLag", got)
	}

	// An idle pump round ships nothing and changes nothing.
	if err := pump(src, app, 1<<20); err != nil {
		t.Fatal(err)
	}
	if wm := app.Watermark(); wm != p.Host.Clock() {
		t.Fatalf("idle pump moved watermark to %d", wm)
	}
}

func TestApplierOffsetMismatchFailStop(t *testing.T) {
	pfs, ffs := vfstest.NewFaultFS(), vfstest.NewFaultFS()
	p := openNode(t, pfs, "primary", false)
	defer p.Close()
	f := openNode(t, ffs, "follower", true)
	defer f.Close()
	drive(t, p, 3)
	src := NewSource(p)
	app := NewApplier(f)

	so, to := app.Offsets()
	sh, err := src.Shipment(so, to, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	sh.TxnOff += 8 // claim the frames land past the follower's extent
	if err := app.Apply(sh); err == nil {
		t.Fatal("offset mismatch accepted")
	}
	// Sticky: even a correct shipment is now refused, and reads fail with
	// the divergence code.
	good, err := src.Shipment(so, to, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Apply(good); err == nil {
		t.Fatal("poisoned applier accepted a shipment")
	}
	if got := gateCode(t, app.Gate(mustParse(t, "USE aion FOR SYSTEM_TIME AS OF 0 MATCH (n) RETURN n"), nil)); got != bolt.FailDiverged {
		t.Fatalf("poisoned applier read = 0x%x, want FailDiverged", got)
	}
}

// TestStaleShipmentIsSkipped: a shipment whose bytes all lie at or below the
// follower's extents — a replay — returns ErrStaleShipment and leaves the
// applier healthy, while one that starts below them but ends above is
// divergence. Judged by its record count instead of its byte length, the
// second passed for a replay and was skipped.
func TestStaleShipmentIsSkipped(t *testing.T) {
	pfs, ffs := vfstest.NewFaultFS(), vfstest.NewFaultFS()
	p := openNode(t, pfs, "primary", false)
	defer p.Close()
	f := openNode(t, ffs, "follower", true)
	defer f.Close()
	drive(t, p, 3)
	src := NewSource(p)
	app := NewApplier(f)
	if err := pump(src, app, 1<<20); err != nil {
		t.Fatal(err)
	}

	so, to := app.Offsets()
	replay, err := src.Shipment(so, 0, 1<<20)
	if err != nil || replay.TxnOff+int64(len(replay.Txn)) != to {
		t.Fatalf("replay of the follower's whole log: %+v, %v", replay, err)
	}
	if err := app.Apply(replay); !errors.Is(err, ErrStaleShipment) || app.Err() != nil {
		t.Fatalf("a replay below the extents: %v (applier error %v), want ErrStaleShipment and a healthy applier", err, app.Err())
	}
	commitValue(t, p, 100, "after the replay")
	if err := pump(src, app, 1<<20); err != nil {
		t.Fatalf("after the skipped replay: %v", err)
	}
	if wm := app.Watermark(); wm != p.Host.Clock() {
		t.Fatalf("watermark %d, primary clock %d", wm, p.Host.Clock())
	}

	so, to = app.Offsets()
	commitValue(t, p, 101, "past the extent")
	_, durable := p.Host.DurableExtents()
	txn, err := p.Host.TxnBytes(0, durable, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	straddling := &Shipment{StrOff: so, TxnOff: 0, Txn: txn}
	if err := app.Apply(straddling); err == nil || errors.Is(err, ErrStaleShipment) || app.Err() == nil {
		t.Fatalf("a shipment from 0 past the extent %d: %v (applier error %v), want divergence", to, err, app.Err())
	}
}

func TestSourceRejectsFollowerAhead(t *testing.T) {
	pfs := vfstest.NewFaultFS()
	p := openNode(t, pfs, "primary", false)
	defer p.Close()
	drive(t, p, 2)
	src := NewSource(p)
	_, txn := p.Host.DurableExtents()
	if _, err := src.Shipment(0, txn+8, 1<<20); err == nil {
		t.Fatal("follower-ahead offsets accepted")
	}
}

func mustParse(t *testing.T, q string) *cypher.Statement {
	t.Helper()
	st, err := cypher.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return st
}

func gateCode(t *testing.T, err error) byte {
	t.Helper()
	if err == nil {
		return 0xFF
	}
	var se *bolt.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("gate returned untyped error: %v", err)
	}
	return se.Code
}

func TestGate(t *testing.T) {
	pfs, ffs := vfstest.NewFaultFS(), vfstest.NewFaultFS()
	p := openNode(t, pfs, "primary", false)
	defer p.Close()
	f := openNode(t, ffs, "follower", true)
	defer f.Close()
	drive(t, p, 5) // watermark will be 5
	src := NewSource(p)
	app := NewApplier(f)
	if err := pump(src, app, 1<<20); err != nil {
		t.Fatal(err)
	}
	wm := app.Watermark()
	if wm != 5 {
		t.Fatalf("watermark %d, want 5", wm)
	}
	app.Note(Heartbeat{LatestTS: wm}) // fresh contact, zero lag

	const ok = byte(0xFF)
	type gateCase struct {
		q      string
		params map[string]model.Value
		want   byte
	}
	cases := []gateCase{
		{"CREATE (n:P)", nil, bolt.FailReadOnly},
		{"MATCH (n:P) SET n.x = 1 RETURN n", nil, bolt.FailReadOnly},
		{"MATCH (n:P) RETURN n", nil, ok},
		{fmt.Sprintf("USE aion FOR SYSTEM_TIME AS OF %d MATCH (n:P) RETURN n", wm), nil, ok},
		{fmt.Sprintf("USE aion FOR SYSTEM_TIME AS OF %d MATCH (n:P) RETURN n", wm+1), nil, bolt.FailReplicaLag},
		{fmt.Sprintf("USE aion FOR SYSTEM_TIME BETWEEN 1 AND %d MATCH (n:P) RETURN n", wm+1), nil, ok}, // [1, wm+1) needs wm
		{fmt.Sprintf("USE aion FOR SYSTEM_TIME BETWEEN 1 AND %d MATCH (n:P) RETURN n", wm+2), nil, bolt.FailReplicaLag},
		{"USE aion FOR SYSTEM_TIME AS OF $t MATCH (n:P) RETURN n",
			map[string]model.Value{"t": model.IntValue(int64(wm))}, ok},
		{"USE aion FOR SYSTEM_TIME AS OF $t MATCH (n:P) RETURN n",
			map[string]model.Value{"t": model.IntValue(int64(wm) + 1)}, bolt.FailReplicaLag},
		// Unevaluable timestamp (missing parameter): conservatively lag.
		{"USE aion FOR SYSTEM_TIME AS OF $missing MATCH (n:P) RETURN n", nil, bolt.FailReplicaLag},
		{fmt.Sprintf("CALL aion.graph(%d)", wm), nil, ok},
		{fmt.Sprintf("CALL aion.graph(%d)", wm+1), nil, bolt.FailReplicaLag},
		{fmt.Sprintf("CALL aion.diff(1, %d)", wm), nil, ok},
		{fmt.Sprintf("CALL aion.diff(1, %d)", wm+1), nil, bolt.FailReplicaLag},
		{"CALL aion.stats()", nil, ok},
	}
	// Every built-in procedure that reads at a timestamp, each timestamp
	// argument (a %d) in turn at wm and at wm+1, the others at 1.
	for _, call := range []string{
		"aion.node(0, %d, %d)", "aion.relationship(0, %d, %d)",
		"aion.relationships(0, 'out', %d, %d)", "aion.expand(0, 'out', 2, %d)",
		"aion.diff(%d, %d)", "aion.graph(%d)", "aion.window(%d, %d)",
		"aion.temporal.earliestArrival(0, 1, %d, %d)", "aion.temporal.latestDeparture(0, 9, %d, %d)",
		"aion.incremental.avg('x', %d, %d, 1)", "aion.incremental.bfs(0, %d, %d, 1)",
		"aion.incremental.sssp(0, 'w', %d, %d, 1)", "aion.incremental.pagerank(%d, %d, 1)",
		"aion.incremental.coloring(%d, %d, 1)",
		"aion.gds.pagerank(%d, 10)", "aion.gds.wcc(%d)", "aion.gds.triangleCount(%d)",
		"aion.gds.bfs(0, %d)", "aion.gds.sssp(0, %d, 'w')", "aion.gds.lcc(0, %d)",
	} {
		parts := strings.Split("CALL "+call, "%d")
		for i := 1; i < len(parts); i++ {
			for ts, want := range map[model.Timestamp]byte{wm: ok, wm + 1: bolt.FailReplicaLag} {
				q := parts[0]
				for j, p := range parts[1:] {
					at := model.Timestamp(1)
					if j+1 == i {
						at = ts
					}
					q += fmt.Sprint(at) + p
				}
				cases = append(cases, gateCase{q, nil, want})
			}
		}
	}
	for _, tc := range cases {
		if got := gateCode(t, app.Gate(mustParse(t, tc.q), tc.params)); got != tc.want {
			t.Errorf("gate(%q) = 0x%x, want 0x%x", tc.q, got, tc.want)
		}
	}

	// Staleness bound: a big advertised primary clock rejects latest reads
	// but leaves at-watermark history servable.
	app.StalenessBound = 3
	app.Note(Heartbeat{LatestTS: wm + 10})
	if got := gateCode(t, app.Gate(mustParse(t, "MATCH (n:P) RETURN n"), nil)); got != bolt.FailReplicaLag {
		t.Errorf("stale latest read = 0x%x, want FailReplicaLag", got)
	}
	asOf := fmt.Sprintf("USE aion FOR SYSTEM_TIME AS OF %d MATCH (n:P) RETURN n", wm)
	if got := gateCode(t, app.Gate(mustParse(t, asOf), nil)); got != ok {
		t.Errorf("stale AS OF read = 0x%x, want ok", got)
	}
	app.StalenessBound = 0

	// Disconnect grace: silence past the bound rejects latest reads.
	app.DisconnectGrace = time.Minute
	base := time.Unix(1000, 0)
	app.now = func() time.Time { return base }
	app.Note(Heartbeat{LatestTS: wm})
	if got := gateCode(t, app.Gate(mustParse(t, "MATCH (n:P) RETURN n"), nil)); got != ok {
		t.Errorf("fresh latest read = 0x%x, want ok", got)
	}
	app.now = func() time.Time { return base.Add(2 * time.Minute) }
	if got := gateCode(t, app.Gate(mustParse(t, "MATCH (n:P) RETURN n"), nil)); got != bolt.FailReplicaLag {
		t.Errorf("silent latest read = 0x%x, want FailReplicaLag", got)
	}
	if got := gateCode(t, app.Gate(mustParse(t, asOf), nil)); got != ok {
		t.Errorf("silent AS OF read = 0x%x, want ok", got)
	}
}

// TestReplicaRefusesACachedWrite sends one write text twice to a follower's
// server: the second RUN finds the statement in the engine's cache, and the
// gate still screens it and refuses it with FailReadOnly.
func TestReplicaRefusesACachedWrite(t *testing.T) {
	f := openNode(t, vfstest.NewFaultFS(), "follower", true)
	defer f.Close()
	eng := cypher.NewEngine(f)
	srv := bolt.NewServer(eng, bolt.Options{ReadGate: NewApplier(f).Gate})
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := bolt.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 2; i++ {
		_, _, _, err := c.Run("CREATE (n:W)", nil)
		var se *bolt.ServerError
		if !errors.As(err, &se) || se.Code != bolt.FailReadOnly {
			t.Fatalf("follower write %d: %v, want FailReadOnly", i, err)
		}
	}
	if cache := f.Metrics.Get("cypher").(expvar.Func).Value().(map[string]uint64); cache["hits"] != 1 || cache["misses"] != 1 {
		t.Fatalf("statement cache %v; want the second write served from the cache", cache)
	}
	if m := srv.Metrics(); m.Rejected != 2 {
		t.Fatalf("%d statements gate-rejected, want 2", m.Rejected)
	}
}
