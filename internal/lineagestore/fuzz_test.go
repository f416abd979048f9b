package lineagestore

import (
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/testkit/vfstest"
	"aion/internal/vfs"
)

// FuzzReadCheckpoint (a leg of `make fuzz-smoke`): Open trusts the checkpoint
// file to skip a whole catch-up, so whatever bytes it holds must fail closed.
// A store opened over them resumes at the position they name exactly when
// their first checkpointLen bytes carry this format's magic and a CRC that
// matches; any other file — short, of an older format, corrupt — leaves the
// store at -1 with nothing applied, for CatchUp to rebuild.
func FuzzReadCheckpoint(f *testing.F) {
	checkpoint := func(magic string, lastTS int64, atLastTS, count uint64) []byte {
		b := append([]byte(magic), binary.BigEndian.AppendUint64(nil, uint64(lastTS))...)
		b = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(b, atLastTS), count)
		return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	good := checkpoint(checkpointMagic, 41, 2, 900)
	f.Add(good)
	f.Add(checkpoint("ALC3", 41, 2, 900)) // the format before compact refs
	f.Add(checkpoint(checkpointMagic, -1, 0, 0))
	f.Add(good[:checkpointLen-1])
	f.Add(append(good[:checkpointLen-1:checkpointLen-1], good[checkpointLen-1]^1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		fs := vfstest.NewFaultFS()
		if err := vfs.MkdirAll(fs, "lineage"); err != nil {
			t.Fatal(err)
		}
		if err := vfs.PublishFile(fs, filepath.Join("lineage", checkpointName), b); err != nil {
			t.Fatal(err)
		}
		s, err := Open(enc.NewCodec(strstore.NewMem()), Options{Dir: "lineage", FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		valid := len(b) >= checkpointLen && string(b[:4]) == checkpointMagic &&
			crc32.ChecksumIEEE(b[:checkpointLen-4]) == binary.BigEndian.Uint32(b[checkpointLen-4:])
		want := struct {
			lastTS          model.Timestamp
			atLastTS, count uint64
		}{-1, 0, 0}
		if valid {
			want.lastTS = model.Timestamp(binary.BigEndian.Uint64(b[4:]))
			want.atLastTS, want.count = binary.BigEndian.Uint64(b[12:]), binary.BigEndian.Uint64(b[20:])
		}
		if s.lastTS != want.lastTS || s.atLastTS != want.atLastTS || s.updateCount != want.count || s.clean.Load() != valid {
			t.Fatalf("a checkpoint of %x opened at (%d, %d, %d), clean %v; want (%d, %d, %d), clean %v",
				b, s.lastTS, s.atLastTS, s.updateCount, s.clean.Load(), want.lastTS, want.atLastTS, want.count, valid)
		}
	})
}
