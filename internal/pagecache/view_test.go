package pagecache

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"aion/internal/vfs"
)

// onBoth runs a test over a cache on an OS file and over one on FaultFS.
func onBoth(t *testing.T, capacity int, test func(t *testing.T, c *Cache)) {
	t.Run("os", func(t *testing.T) {
		c, err := Open(filepath.Join(t.TempDir(), "pages.idx"), capacity)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		test(t, c)
	})
	t.Run("faultfs", func(t *testing.T) {
		c, err := OpenFS(vfs.NewFaultFS(), "d/pages.idx", capacity)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		test(t, c)
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
		c.Release(id)
	}
}

// readsAs checks that a Get of the page reads b throughout.
func readsAs(t *testing.T, c *Cache, id PageID, b byte) {
	t.Helper()
	data, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(id)
	if data[0] != b || data[PageSize-1] != b {
		t.Fatalf("page %d reads %d..%d, want %d", id, data[0], data[PageSize-1], b)
	}
}

// TestWrittenBackPagesReadThroughTheView: a page written back by eviction or
// by Flush leaves no frame behind and reads back through the view with its
// new bytes.
func TestWrittenBackPagesReadThroughTheView(t *testing.T) {
	onBoth(t, 8, func(t *testing.T, c *Cache) {
		fill(t, c, 24) // 16 evictions
		if st := c.Stats(); st.Evictions != 16 || st.Frames != 8 {
			t.Fatalf("after 24 allocations through a budget of 8: %+v", st)
		}
		for id := PageID(0); id < 16; id++ {
			readsAs(t, c, id, byte(id))
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Frames != 0 {
			t.Fatalf("Flush left %d frames", st.Frames)
		}
		for id := PageID(0); id < 24; id++ {
			readsAs(t, c, id, byte(id))
		}
		// Rewrite two pages: one goes out by eviction, one by Flush.
		for _, id := range []PageID{3, 20} {
			data, err := c.GetMut(id)
			if err != nil {
				t.Fatal(err)
			}
			for j := range data {
				data[j] = 0xa0 + byte(id)
			}
			c.Release(id)
		}
		fill(t, c, 7) // page 3's frame is the oldest: the eighth frame evicts it
		if _, held := c.frames[3]; held {
			t.Fatal("page 3 kept its frame past the budget")
		}
		readsAs(t, c, 3, 0xa3)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		readsAs(t, c, 20, 0xb4)
		if st := c.Stats(); st.Frames != 0 || c.pool.resident != 0 {
			t.Fatalf("after the last Flush: %+v, pool %d", st, c.pool.resident)
		}
	})
}

// TestCrashedHandleFailsGet: a cache whose FaultFS crashed reads through a
// stale handle, and its Get fails rather than serving the pre-crash bytes.
func TestCrashedHandleFailsGet(t *testing.T) {
	fs := vfs.NewFaultFS()
	c, err := OpenFS(fs, "d/pages.idx", 8)
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
	if c.Pinned() != 0 || c.Stats().Frames != 0 {
		t.Fatal("a failed GetMut kept its frame")
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

// TestReadersRaceAWriter: readers of the pages on file race a writer that
// appends pages, rewrites its own through GetMut, and evicts and flushes
// them — growing the file past its mapping. Under -race this checks the
// frameless path's atomics and the views' remapping.
func TestReadersRaceAWriter(t *testing.T) {
	onBoth(t, 8, func(t *testing.T, c *Cache) {
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
						c.Release(id)
						return
					}
					c.Release(id)
				}
			}(r)
		}
		for i := 0; i < 600; i++ { // past 1 MiB: the OS file is mapped again
			id, data, err := c.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			data[0] = byte(i)
			c.Release(id)
			if i%10 == 9 { // rewrite a page of its own, framed or on file
				if data, err = c.GetMut(id - 5); err != nil {
					t.Fatal(err)
				}
				data[1] = byte(i)
				c.Release(id - 5)
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

// TestFramelessGetTakesNoMutex: on a cache that holds no frame a Get reads
// the view with no copy, no allocation and no lock — it returns while the
// pool's mutex is held — and its Release is a no-op.
func TestFramelessGetTakesNoMutex(t *testing.T) {
	onBoth(t, 8, func(t *testing.T, c *Cache) {
		fill(t, c, 4)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		readsAs(t, c, 3, 3) // the OS file maps on its first read
		allocs := testing.AllocsPerRun(100, func() {
			for id := PageID(0); id < 4; id++ {
				if _, err := c.Get(id); err != nil {
					t.Fatal(err)
				}
				c.Release(id)
			}
		})
		if allocs != 0 {
			t.Errorf("a frameless Get and Release allocate %.0f times, want 0", allocs)
		}
		c.pool.mu.Lock()
		done := make(chan []byte)
		go func() {
			data, err := c.Get(2)
			if err != nil {
				t.Error(err)
			}
			c.Release(2)
			done <- data
		}()
		data := <-done
		c.pool.mu.Unlock()
		if data[0] != 2 {
			t.Errorf("page 2 reads %d", data[0])
		}
		if st := c.Stats(); st.Frames != 0 || st.Misses != 0 {
			t.Errorf("reads made frames: %+v", st)
		}
	})
}
