package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"aion/internal/testkit/vfstest"
)

func openLog(t *testing.T) *Log {
	t.Helper()
	l, err := Open(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestAppendReadRoundTrip(t *testing.T) {
	l := openLog(t)
	offs := make([]int64, 0, 100)
	for i := 0; i < 100; i++ {
		off, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	for i, off := range offs {
		got, err := l.ReadAt(off)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != fmt.Sprintf("record-%d", i) {
			t.Errorf("record %d = %q", i, got)
		}
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	l := openLog(t)
	for i := 0; i < 50; i++ {
		l.Append([]byte{byte(i)})
	}
	i := 0
	end, err := l.Scan(0, func(off int64, p []byte) bool {
		if p[0] != byte(i) {
			t.Fatalf("out of order at %d: %d", i, p[0])
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 50 || end != l.Size() {
		t.Errorf("visited %d, end %d, size %d", i, end, l.Size())
	}
	// Early stop returns the next offset for resumption.
	count := 0
	mid, err := l.Scan(0, func(off int64, p []byte) bool {
		count++
		return count < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	rest := 0
	if _, err := l.Scan(mid, func(off int64, p []byte) bool { rest++; return true }); err != nil {
		t.Fatal(err)
	}
	if count+rest != 50 {
		t.Errorf("resumed scan covered %d records", count+rest)
	}
}

func TestScanFromMidOffset(t *testing.T) {
	l := openLog(t)
	var offs []int64
	for i := 0; i < 20; i++ {
		off, _ := l.Append([]byte{byte(i)})
		offs = append(offs, off)
	}
	first := -1
	l.Scan(offs[7], func(off int64, p []byte) bool {
		if first < 0 {
			first = int(p[0])
		}
		return true
	})
	if first != 7 {
		t.Errorf("scan from offset started at record %d", first)
	}
}

func TestReadErrors(t *testing.T) {
	l := openLog(t)
	l.Append([]byte("x"))
	if _, err := l.ReadAt(-1); err == nil {
		t.Error("negative offset must fail")
	}
	if _, err := l.ReadAt(l.Size()); err == nil {
		t.Error("past-end offset must fail")
	}
	if _, err := l.ReadAt(3); err == nil {
		t.Error("misaligned offset must fail checksum or bounds")
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := l.Append([]byte("important"))
	l.Close()

	// Flip a payload byte on disk.
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0xFF
	os.WriteFile(path, b, 0o644)

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.ReadAt(off); err == nil {
		t.Error("corrupted record must fail checksum")
	}
}

func TestReopenPreservesSize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _ := Open(path)
	l.Append([]byte("one"))
	off2, _ := l.Append([]byte("two"))
	l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, err := l2.ReadAt(off2)
	if err != nil || string(got) != "two" {
		t.Errorf("reopened read: %q %v", got, err)
	}
	// New appends continue after existing data.
	off3, _ := l2.Append([]byte("three"))
	if off3 <= off2 {
		t.Error("append after reopen must extend the log")
	}
}

func TestConcurrentReadersDuringAppend(t *testing.T) {
	l := openLog(t)
	for i := 0; i < 100; i++ {
		l.Append([]byte{byte(i)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := 0
				l.Scan(0, func(off int64, p []byte) bool { n++; return true })
				if n < 100 {
					t.Errorf("reader saw %d records", n)
					return
				}
			}
		}()
	}
	for i := 100; i < 200; i++ {
		l.Append([]byte{byte(i)})
	}
	wg.Wait()
}

// TestScanBatchMatchesScan verifies the readahead batch scan returns the
// exact record sequence of the record-at-a-time Scan, including with a
// readahead small enough to force records across chunk boundaries and a
// record bigger than the readahead buffer (forcing growth).
func TestScanBatchMatchesScan(t *testing.T) {
	l := openLog(t)
	for i := 0; i < 200; i++ {
		payload := make([]byte, 1+i%37)
		for j := range payload {
			payload[j] = byte(i)
		}
		if i == 150 {
			payload = make([]byte, 300) // larger than the tiny readahead below
		}
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	type rec struct {
		off int64
		n   int
		b0  byte
	}
	var want []rec
	l.Scan(0, func(off int64, p []byte) bool {
		want = append(want, rec{off, len(p), p[0]})
		return true
	})
	for _, readahead := range []int{0, 64, 1 << 20} {
		var got []rec
		end, err := l.ScanBatch(0, readahead, func(frames []Frame) bool {
			for _, fr := range frames {
				got = append(got, rec{fr.Off, len(fr.Payload), fr.Payload[0]})
			}
			return true
		})
		if err != nil {
			t.Fatalf("readahead %d: %v", readahead, err)
		}
		if end != l.Size() {
			t.Errorf("readahead %d: end %d, size %d", readahead, end, l.Size())
		}
		if len(got) != len(want) {
			t.Fatalf("readahead %d: %d records, want %d", readahead, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("readahead %d: record %d = %+v, want %+v", readahead, i, got[i], want[i])
			}
		}
	}
}

func TestScanBatchEarlyStop(t *testing.T) {
	l := openLog(t)
	for i := 0; i < 50; i++ {
		l.Append([]byte{byte(i)})
	}
	seen := 0
	mid, err := l.ScanBatch(0, 4*HeaderSize, func(frames []Frame) bool {
		seen += len(frames)
		return seen < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	rest := 0
	if _, err := l.ScanBatch(mid, 0, func(frames []Frame) bool { rest += len(frames); return true }); err != nil {
		t.Fatal(err)
	}
	if seen+rest != 50 {
		t.Errorf("resumed batch scan covered %d records", seen+rest)
	}
}

// corruptOnDisk mutates the log's backing file through a second OS handle
// while the Log stays open, simulating bit rot under a live reader (Open
// itself would repair the tail away).
func corruptOnDisk(t *testing.T, path string, fn func(b []byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScanBatchCorruption flips a byte mid-log and verifies the batch scan
// surfaces a checksum error while still delivering the records before it.
func TestScanBatchCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _ := Open(path)
	defer l.Close()
	var offs []int64
	for i := 0; i < 20; i++ {
		off, _ := l.Append([]byte{byte(i), byte(i), byte(i)})
		offs = append(offs, off)
	}
	corruptOnDisk(t, path, func(b []byte) []byte {
		b[offs[10]+HeaderSize] ^= 0xFF // corrupt record 10's payload
		return b
	})

	n := 0
	_, err := l.ScanBatch(0, 0, func(frames []Frame) bool { n += len(frames); return true })
	if err == nil {
		t.Fatal("corrupted record must fail the batch scan")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("corruption must surface ErrCorrupt, got %v", err)
	}
	if n != 10 {
		t.Errorf("delivered %d records before the corruption, want 10", n)
	}
	// A scan that stops before the corruption must not see the error.
	n = 0
	_, err = l.ScanBatch(0, 0, func(frames []Frame) bool { n += len(frames); return false })
	if err != nil {
		t.Errorf("scan stopping before the bad record must not error: %v", err)
	}
}

// TestScanRangeStopsAtItsBound pins that a range scan delivers exactly the
// records in [from, to) and reads nothing at or past to: the record at to is
// corrupt on disk, which a scan to the log's end must report and the bounded
// one must never meet.
func TestScanRangeStopsAtItsBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := Open(path)
	defer l.Close()
	var offs []int64
	for i := 0; i < 20; i++ {
		off, _ := l.Append([]byte{byte(i), byte(i), byte(i)})
		offs = append(offs, off)
	}
	corruptOnDisk(t, path, func(b []byte) []byte {
		b[offs[12]+HeaderSize] ^= 0xFF
		return b
	})
	for _, readahead := range []int{0, HeaderSize + 3, 40} {
		var got []int64
		next, err := l.ScanRange(offs[5], offs[12], readahead, func(frames []Frame) bool {
			for _, fr := range frames {
				got = append(got, fr.Off)
			}
			return true
		})
		if err != nil || next != offs[12] || !slices.Equal(got, offs[5:12]) {
			t.Errorf("readahead %d: ScanRange [%d,%d) = %v, next %d, err %v; want %v", readahead, offs[5], offs[12], got, next, err, offs[5:12])
		}
	}
	if _, err := l.ScanRange(offs[5], l.Size()+100, 0, func([]Frame) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a bound past the end must scan to the end and meet the corruption, got %v", err)
	}
	if n, err := l.ScanRange(offs[7], offs[7], 0, func([]Frame) bool { t.Error("empty range delivered frames"); return true }); err != nil || n != offs[7] {
		t.Errorf("empty range: next %d, err %v", n, err)
	}
}

// TestScanBatchTruncated chops the log mid-record under a live Log; the
// batch scan must detect the torn tail.
func TestScanBatchTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _ := Open(path)
	defer l.Close()
	for i := 0; i < 10; i++ {
		l.Append([]byte("payload-payload"))
	}
	// Truncate on disk but leave l.size stale, the window a crash exposes.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(l.Size() - 5); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := l.ScanBatch(0, 0, func(frames []Frame) bool { return true }); err == nil {
		t.Error("torn tail must surface an error")
	}
}

// TestOpenRepairsTornTail is the satellite regression: a half-written
// record at the tail is truncated by Open, and the log accepts appends and
// scans cleanly afterwards.
func TestOpenRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _ := Open(path)
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	goodSize := l.Size()
	l.Close()

	// Simulate a torn append: header + half the payload of an 11th record.
	b, _ := os.ReadFile(path)
	torn := make([]byte, HeaderSize+3)
	torn[0] = 6 // claims a 6-byte payload; only 3 bytes follow
	os.WriteFile(path, append(b, torn...), 0o644)

	l2, err := Open(path)
	if err != nil {
		t.Fatalf("open must repair the torn tail, got %v", err)
	}
	defer l2.Close()
	if l2.RepairedBytes() != int64(len(torn)) {
		t.Errorf("repaired %d bytes, want %d", l2.RepairedBytes(), len(torn))
	}
	if l2.Size() != goodSize {
		t.Errorf("size after repair = %d, want %d", l2.Size(), goodSize)
	}
	if _, err := l2.Append([]byte("rec-10")); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := l2.Scan(0, func(off int64, p []byte) bool { n++; return true }); err != nil {
		t.Fatalf("scan after repair: %v", err)
	}
	if n != 11 {
		t.Errorf("scanned %d records after repair+append, want 11", n)
	}
}

// TestOpenRepairsCorruptMidLog: a checksum-corrupt record mid-log truncates
// everything from that record on (we cannot trust anything past the first
// bad frame).
func TestOpenRepairsCorruptMidLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _ := Open(path)
	var offs []int64
	for i := 0; i < 8; i++ {
		off, _ := l.Append([]byte{byte(i), byte(i)})
		offs = append(offs, off)
	}
	l.Close()
	corruptOnDisk(t, path, func(b []byte) []byte {
		b[offs[5]+HeaderSize] ^= 0xFF
		return b
	})
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Size() != offs[5] {
		t.Errorf("size after repair = %d, want %d", l2.Size(), offs[5])
	}
	n := 0
	l2.Scan(0, func(off int64, p []byte) bool { n++; return true })
	if n != 5 {
		t.Errorf("scanned %d records, want 5", n)
	}
}

// TestSyncFailStop: after an injected fsync failure every later Append and
// Sync returns the original error instead of silently succeeding.
func TestSyncFailStop(t *testing.T) {
	fs := vfstest.NewFaultFS()
	l, err := OpenFS(fs, "d/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	fs.SetFailAfter(fs.Ops() + 1)
	if err := l.Sync(); !errors.Is(err, vfstest.ErrInjected) {
		t.Fatalf("sync must surface the injected error, got %v", err)
	}
	fs.SetFailAfter(0) // disk "recovers" — the log must not
	if _, err := l.Append([]byte("b")); err == nil {
		t.Error("append after failed sync must fail-stop")
	}
	if err := l.Sync(); err == nil {
		t.Error("sync after failed sync must fail-stop")
	}
}

// TestAppendFailStop: a failed write poisons the log the same way.
func TestAppendFailStop(t *testing.T) {
	fs := vfstest.NewFaultFS()
	l, err := OpenFS(fs, "d/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	fs.SetFailAfter(fs.Ops() + 1)
	if _, err := l.Append([]byte("a")); !errors.Is(err, vfstest.ErrInjected) {
		t.Fatalf("append must surface the injected error, got %v", err)
	}
	fs.SetFailAfter(0)
	if _, err := l.Append([]byte("b")); err == nil {
		t.Error("append after failed append must fail-stop")
	}
}

func TestOpenTemp(t *testing.T) {
	l, err := OpenTemp(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if l.Path() == "" {
		t.Error("temp log must report its path")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBatchRoundTrip(t *testing.T) {
	l := openLog(t)
	if _, err := l.Append([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, 40)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("batched-record-%d", i))
	}
	offs, err := l.AppendBatch(payloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != len(payloads) {
		t.Fatalf("got %d offsets, want %d", len(offs), len(payloads))
	}
	for i, off := range offs {
		got, err := l.ReadAt(off)
		if err != nil {
			t.Fatalf("record %d at %d: %v", i, off, err)
		}
		if string(got) != string(payloads[i]) {
			t.Errorf("record %d = %q, want %q", i, got, payloads[i])
		}
	}
	// A batch append and N singleton appends are indistinguishable to Scan.
	var seen []string
	if _, err := l.Scan(0, func(off int64, p []byte) bool {
		seen = append(seen, string(p))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(payloads)+1 || seen[0] != "pre" || seen[1] != "batched-record-0" {
		t.Fatalf("scan saw %d records (first %q)", len(seen), seen[0])
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBatchEmptyAndInterleaved(t *testing.T) {
	l := openLog(t)
	if offs, err := l.AppendBatch(nil); err != nil || offs != nil {
		t.Fatalf("empty batch: %v %v", offs, err)
	}
	// Interleave singleton and batch appends; offsets must stay contiguous.
	off1, err := l.Append([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	offs, err := l.AppendBatch([][]byte{[]byte("bb"), []byte("ccc")})
	if err != nil {
		t.Fatal(err)
	}
	off2, err := l.Append([]byte("dddd"))
	if err != nil {
		t.Fatal(err)
	}
	want := off1 + HeaderSize + 1
	if offs[0] != want {
		t.Fatalf("batch record 0 at %d, want %d", offs[0], want)
	}
	if offs[1] != offs[0]+HeaderSize+2 {
		t.Fatalf("batch record 1 at %d", offs[1])
	}
	if off2 != offs[1]+HeaderSize+3 {
		t.Fatalf("post-batch append at %d", off2)
	}
}

// TestAppendBatchTornTail checks the group-commit recovery contract at the
// WAL layer: when only a prefix of a batch append reaches disk, reopening
// keeps every fully framed record of the prefix and drops the torn suffix —
// never a suffix record without its predecessors.
func TestAppendBatchTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]byte{[]byte("tx-one"), []byte("tx-two"), []byte("tx-three")}
	offs, err := l.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the batch mid-way through the second record.
	cut := offs[1] + HeaderSize + 3
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.RepairedBytes() == 0 {
		t.Fatal("expected torn-tail repair")
	}
	var seen []string
	if _, err := l2.Scan(0, func(off int64, p []byte) bool {
		seen = append(seen, string(p))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "tx-one" {
		t.Fatalf("recovered %v, want only tx-one", seen)
	}
}

// FuzzCut feeds Cut arbitrary bytes: it must never panic, a record it accepts
// is exactly what AppendRecord makes of the payload it returns, one it refuses
// is ErrCorrupt with b left whole, and every payload survives AppendRecord
// then Cut.
func FuzzCut(f *testing.F) {
	f.Add(AppendRecord(nil, []byte("ATL3")))
	f.Add(AppendRecord(AppendRecord(nil, []byte{1, 2, 3}), nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, rest, err := Cut(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || len(rest) != len(b) {
				t.Fatalf("Cut(% x) = %v with %d bytes left, want ErrCorrupt and all %d", b, err, len(rest), len(b))
			}
		} else if rec := b[:len(b)-len(rest)]; !slices.Equal(AppendRecord(nil, payload), rec) {
			t.Fatalf("Cut accepted % x as payload % x, which AppendRecord frames differently", rec, payload)
		}
		if got, rest, err := Cut(AppendRecord(nil, b)); err != nil || !slices.Equal(got, b) || len(rest) != 0 {
			t.Fatalf("AppendRecord then Cut of % x: % x, %d left, %v", b, got, len(rest), err)
		}
	})
}
