package pagecache

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"aion/internal/testkit/vfstest"
	"aion/internal/vfs"
)

// onBoth runs a test over a cache on an OS file and over one on FaultFS,
// handing it the filesystem and path too, for a second handle.
func onBoth(t *testing.T, test func(t *testing.T, c *Cache, fs vfs.FS, path string)) {
	t.Run("os", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "pages.idx")
		c, err := OpenFS(vfs.OS, path)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		test(t, c, vfs.OS, path)
	})
	t.Run("faultfs", func(t *testing.T) {
		fs := vfstest.NewFaultFS()
		c, err := OpenFS(fs, "d/pages.idx")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		test(t, c, fs, "d/pages.idx")
	})
}

// fill allocates n pages, page i holding byte i throughout.
func fill(t *testing.T, c *Cache, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id, data, err := c.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for j := range data {
			data[j] = byte(id)
		}
	}
}

// readsAs checks that a Get of the page reads b throughout.
func readsAs(t *testing.T, c *Cache, id PageID, b byte) {
	t.Helper()
	data, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != b || data[PageSize-1] != b {
		t.Fatalf("page %d reads %d..%d, want %d", id, data[0], data[PageSize-1], b)
	}
}

// readsOnFile checks through a second handle on the file that the page reads
// b throughout.
func readsOnFile(t *testing.T, fs vfs.FS, path string, id PageID, b byte) {
	t.Helper()
	f, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := make([]byte, PageSize)
	if _, err := f.ReadAt(data, int64(id)*PageSize); err != nil {
		t.Fatal(err)
	}
	if data[0] != b || data[PageSize-1] != b {
		t.Fatalf("page %d reads %d..%d on file, want %d", id, data[0], data[PageSize-1], b)
	}
}

// TestWrittenBackPagesReadThroughTheView: a page written through GetMut is
// the file's page: Get and another handle's ReadAt see the write at once,
// before any Flush, and after it.
func TestWrittenBackPagesReadThroughTheView(t *testing.T) {
	onBoth(t, func(t *testing.T, c *Cache, fs vfs.FS, path string) {
		fill(t, c, 24)
		for id := PageID(0); id < 24; id++ {
			readsAs(t, c, id, byte(id))
			readsOnFile(t, fs, path, id, byte(id))
		}
		for _, id := range []PageID{3, 20} {
			data, err := c.GetMut(id)
			if err != nil {
				t.Fatal(err)
			}
			for j := range data {
				data[j] = 0xa0 + byte(id)
			}
			readsAs(t, c, id, 0xa0+byte(id))
			readsOnFile(t, fs, path, id, 0xa0+byte(id))
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		readsAs(t, c, 3, 0xa3)
		readsOnFile(t, fs, path, 20, 0xb4)
	})
}

// TestSliceTakenBeforeGrowthLandsInTheFile: a page held across Allocates that
// grow the file — a leaf splitLeaf rewrites after allocating its sibling —
// past the OS file's first mapping still writes the file's bytes.
func TestSliceTakenBeforeGrowthLandsInTheFile(t *testing.T) {
	onBoth(t, func(t *testing.T, c *Cache, fs vfs.FS, path string) {
		fill(t, c, 2)
		held, err := c.GetMut(1)
		if err != nil {
			t.Fatal(err)
		}
		fill(t, c, 300) // past 1 MiB: the OS file is mapped again
		for j := range held {
			held[j] = 0xab
		}
		readsAs(t, c, 1, 0xab)
		readsOnFile(t, fs, path, 1, 0xab)
		readsOnFile(t, fs, path, 301, byte(301%256))
	})
}

// TestCrashKeepsOnlyFlushedWrites: a write through the view is current, not
// durable: a crash before Flush loses it, one after Flush keeps it.
func TestCrashKeepsOnlyFlushedWrites(t *testing.T) {
	fs := vfstest.NewFaultFS()
	c, err := OpenFS(fs, "d/pages.idx")
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 2)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	write := func(id PageID, b byte) {
		data, err := c.GetMut(id)
		if err != nil {
			t.Fatal(err)
		}
		for j := range data {
			data[j] = b
		}
	}
	write(0, 0xf0)
	fs.Crash()
	c, err = OpenFS(fs, "d/pages.idx")
	if err != nil {
		t.Fatal(err)
	}
	readsAs(t, c, 0, 0) // lost
	write(1, 0xf1)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if c, err = OpenFS(fs, "d/pages.idx"); err != nil {
		t.Fatal(err)
	}
	readsAs(t, c, 1, 0xf1) // kept
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashedHandleFailsGet: a cache whose FaultFS crashed reads through a
// stale handle, and its Get fails rather than serving the pre-crash bytes.
func TestCrashedHandleFailsGet(t *testing.T) {
	fs := vfstest.NewFaultFS()
	c, err := OpenFS(fs, "d/pages.idx")
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 2)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	readsAs(t, c, 1, 1)
	fs.Crash()
	if _, err := c.Get(1); err == nil {
		t.Fatal("Get through a handle from before the crash succeeded")
	}
	if _, err := c.GetMut(1); err == nil {
		t.Fatal("GetMut through a handle from before the crash succeeded")
	}
}

// TestCloseUnmapsTheFile: Close unmaps every view before it closes the file,
// so that a Wipe that removes or truncates the file after reads cannot fault
// a reader.
func TestCloseUnmapsTheFile(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	path := filepath.Join(t.TempDir(), "unmapped.idx")
	mapped := func() bool {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return strings.Contains(string(maps), path)
	}
	c, err := Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 300) // past the first mapping: two views
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	readsAs(t, c, 0, 0)
	readsAs(t, c, 299, byte(299%256))
	if !mapped() {
		t.Fatal("reads after a Flush mapped nothing")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if mapped() {
		t.Fatal("the file is still mapped after Close")
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
}

// TestReadersRaceAWriter: readers of some pages race a writer that appends
// pages, rewrites its own through GetMut and flushes — growing the file past
// its mapping. Under -race this checks the atomics and the views' remapping:
// distinct pages need no lock between them.
func TestReadersRaceAWriter(t *testing.T) {
	onBoth(t, func(t *testing.T, c *Cache, fs vfs.FS, path string) {
		const onFile = 64
		fill(t, c, onFile)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		errs := make(chan error, 4)
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := r; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					id := PageID(i % onFile)
					data, err := c.Get(id)
					if err != nil {
						errs <- err
						return
					}
					if data[0] != byte(id) || data[PageSize-1] != byte(id) {
						errs <- fmt.Errorf("page %d changed under a reader: %d..%d", id, data[0], data[PageSize-1])
						return
					}
				}
			}(r)
		}
		for i := 0; i < 600; i++ { // past 1 MiB: the OS file is mapped again
			id, data, err := c.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			data[0] = byte(i)
			if i%10 == 9 { // rewrite a page of its own
				if data, err = c.GetMut(id - 5); err != nil {
					t.Fatal(err)
				}
				data[1] = byte(i)
			}
			if i%50 == 49 {
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		readsAs(t, c, onFile-1, onFile-1)
	})
}

// TestFramelessGetTakesNoMutex: a Get or GetMut reads the view with no copy,
// no allocation and no lock — it returns while the cache's mutex is held.
func TestFramelessGetTakesNoMutex(t *testing.T) {
	onBoth(t, func(t *testing.T, c *Cache, _ vfs.FS, _ string) {
		fill(t, c, 4)
		readsAs(t, c, 3, 3) // the OS file maps on its first read
		allocs := testing.AllocsPerRun(100, func() {
			for id := PageID(0); id < 4; id++ {
				if _, err := c.Get(id); err != nil {
					t.Fatal(err)
				}
				if _, err := c.GetMut(id); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("Get and GetMut allocate %.0f times, want 0", allocs)
		}
		c.mu.Lock()
		done := make(chan []byte)
		go func() {
			data, err := c.Get(2)
			if err == nil {
				_, err = c.GetMut(1)
			}
			if err != nil {
				t.Error(err)
			}
			done <- data
		}()
		data := <-done
		c.mu.Unlock()
		if data[0] != 2 {
			t.Errorf("page 2 reads %d", data[0])
		}
	})
}
