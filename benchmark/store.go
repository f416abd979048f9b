package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"aion/internal/aion"
	"aion/internal/bolt"
	"aion/internal/cypher"
	"aion/internal/system"
)

// store is one opened system under test with the boundaries the workloads
// and the traced ladder call.
type store struct {
	dir string
	sys *system.System
	eng *cypher.Engine
	srv *bolt.Server // only when the workload runs over the wire
	cl  *bolt.Client
}

// setupTimes splits one set-up into the two phases system.* reports.
type setupTimes struct{ load, reopen time.Duration }

func (t setupTimes) total() time.Duration { return t.load + t.reopen }

func (t setupTimes) String() string {
	return fmt.Sprintf("load %.2fs + reopen %.2fs", t.load.Seconds(), t.reopen.Seconds())
}

// setUp performs noise rule 5 in dir: bulk-load without per-commit fsync,
// drain and close, reopen with the serving configuration (and dial when the
// workload is served over bolt), then collect garbage so the measured phase
// starts from a settled heap.
func setUp(ds *dataset, dir string, opts aion.Options, overBolt bool) (*store, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, t, err
	}
	sys, err := system.Open(system.Options{Dir: dir, Aion: opts})
	if err != nil {
		return nil, t, err
	}
	if err := ds.load(sys.Host); err != nil {
		sys.Close()
		return nil, t, err
	}
	if err := sys.Aion.WaitSync(); err != nil {
		sys.Close()
		return nil, t, err
	}
	sys.Aion.TimeStore().WaitSnapshots()
	if err := sys.Flush(); err != nil {
		sys.Close()
		return nil, t, err
	}
	if err := sys.Close(); err != nil {
		return nil, t, err
	}
	t.load = time.Since(t0)

	t0 = time.Now()
	st, err := openStore(dir, opts, overBolt)
	if err != nil {
		return nil, t, err
	}
	runtime.GC()
	t.reopen = time.Since(t0)
	return st, t, nil
}

// openStore opens dir with the serving configuration: every commit waits
// for its two fsyncs (strings, then transaction log). What an fsync costs
// here is the sandbox's virtual disk, not a device.
func openStore(dir string, opts aion.Options, overBolt bool) (*store, error) {
	sys, err := system.Open(system.Options{Dir: dir, Aion: opts, SyncCommits: true})
	if err != nil {
		return nil, err
	}
	st := &store{dir: dir, sys: sys, eng: cypher.NewEngine(sys)}
	if overBolt {
		st.srv = bolt.NewServer(st.eng)
		addr, err := st.srv.Listen("127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		if st.cl, err = bolt.Dial(addr); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// drain waits for the background cascade and snapshot workers and makes
// everything durable, so byte counts and counters are read at rest.
func (st *store) drain() error {
	if err := st.sys.Aion.WaitSync(); err != nil {
		return err
	}
	st.sys.Aion.TimeStore().WaitSnapshots()
	return st.sys.Flush()
}

// diskBytes is the system's on-disk footprint: host records, transaction
// log and strings, both temporal stores, and Aion's string table.
func (st *store) diskBytes() (int64, error) {
	tsBytes, lsBytes := st.sys.Aion.DiskBytes()
	fi, err := os.Stat(filepath.Join(st.dir, "aion", "strings.db"))
	if err != nil {
		return 0, err
	}
	return st.sys.Host.Storage().Total() + tsBytes + lsBytes + fi.Size(), nil
}

func (st *store) close() error {
	var first error
	if st.cl != nil {
		first = st.cl.Close()
	}
	if st.srv != nil {
		if err := st.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := st.sys.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// scratchRoot is where every run keeps its store directories and outputs:
// inside the checkout, ignored by git.
const scratchRoot = "benchmark/out"

// newRunDir makes a private directory for this process under scratchRoot.
func newRunDir() (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(scratchRoot, fmt.Sprintf("run-%d-", os.Getpid()))
	if err != nil {
		return "", err
	}
	return dir, nil
}
