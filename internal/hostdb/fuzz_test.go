package hostdb

import (
	"encoding/binary"
	"runtime"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
)

// TestDecodeCommitBoundsTheCount: a commit record's update count is foreign
// input — ApplyShipment decodes frames that arrived over the network — so a
// count its bytes cannot hold is refused before it sizes an allocation. Sized
// first, a 7-byte record claiming 2^40 updates ends the process with an
// out-of-memory error no caller can recover from.
func TestDecodeCommitBoundsTheCount(t *testing.T) {
	db := &DB{codec: enc.NewFixedRefCodec(strstore.NewMem())}
	for _, n := range []uint64{1 << 16, 1 << 40} {
		rec := binary.AppendUvarint(nil, n)
		rec = append(rec, make([]byte, 7-len(rec))...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := db.decodeCommit(nil, rec)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("a 7-byte record claiming %d updates decoded", n)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
			t.Errorf("decoding a 7-byte record claiming %d updates allocated %d bytes", n, got)
		}
	}
}

// FuzzDecodeCommit feeds decodeCommit arbitrary bytes, as a follower's
// ApplyShipment does: it must never panic, it must accept the record's update
// section — all that Open decodes — exactly when it
// accepts the record, with as many updates, and on every record it accepts
// peekCommitTS — what ReplayCommitted skips by — must name the first update's
// timestamp (-1 for an empty commit).
func FuzzDecodeCommit(f *testing.F) {
	db := &DB{codec: enc.NewFixedRefCodec(strstore.NewMem())}
	for _, us := range [][]model.Update{
		{model.AddNode(1, 0, []string{"P"}, model.Properties{"k": model.IntValue(1)})},
		{model.AddNode(7, 1, nil, nil), model.AddRel(7, 0, 0, 1, "R", model.Properties{"w": model.FloatValue(0.5)})},
		{model.UpdateNode(9, 1, []string{"Q"}, nil, nil, []string{"k"}), model.DeleteRel(9, 0, 0, 1)},
		{},
	} {
		rec, err := db.encodeCommit(us)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	f.Add(append(binary.AppendUvarint(nil, 1<<40), 0))
	f.Add([]byte{1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, rec []byte) {
		us, err := db.decodeCommit(nil, rec)
		if sec, serr := db.decodeCommit(nil, updateSection(rec)); (serr == nil) != (err == nil) || len(sec) != len(us) {
			t.Fatalf("the update section decodes to %d updates (%v), the record to %d (%v)", len(sec), serr, len(us), err)
		}
		if err != nil {
			return
		}
		want := model.Timestamp(-1)
		if len(us) > 0 {
			want = us[0].TS
		}
		if ts, perr := peekCommitTS(rec); perr != nil || ts != want {
			t.Fatalf("peekCommitTS = %d, %v on a commit that decodes to %d updates, the first at ts %d", ts, perr, len(us), want)
		}
	})
}
