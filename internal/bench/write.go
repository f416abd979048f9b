package bench

import (
	"fmt"
	"sync"
	"time"

	"aion/internal/hostdb"
	"aion/internal/model"
)

// WriteConfig tunes the commit-throughput suite.
type WriteConfig struct {
	// Committers are the concurrency levels to sweep (default 1/4/16/64).
	Committers []int
	// OpsPerCommitter is the number of transactions each committer runs
	// at every level (default 100).
	OpsPerCommitter int
}

// WriteRow is one level of the commit-throughput suite: the serialised
// committers ([0]) against the group-commit pipeline ([1]).
type WriteRow struct {
	Committers      int
	SyncCommits     bool
	OpsPerSec       [2]float64
	FsyncsPerCommit [2]float64
}

// RunWritePath measures host commit throughput across committer counts, with
// SyncCommits on and off, the group-commit pipeline off against on. "off" is a
// harness shim, not a host option: committers are serialised by a mutex
// around Commit, so every round of the one production commit path is a
// one-transaction group — one log append and, when synchronous, two fsyncs
// per transaction, the pre-pipeline cost. Each transaction creates one node
// with a small property — the smallest realistic commit, which maximises
// per-commit overhead and therefore isolates what the pipeline coalesces.
// Every run commits into a fresh store; only the commits are timed.
func RunWritePath(cfg Config, mkdir func(string) string, wc WriteConfig) ([]WriteRow, error) {
	cfg.Defaults()
	if len(wc.Committers) == 0 {
		wc.Committers = []int{1, 4, 16, 64}
	}
	if wc.OpsPerCommitter <= 0 {
		wc.OpsPerCommitter = 100
	}
	t := &table{header: []string{"committers", "sync", "off (ops/s)", "pipeline (ops/s)", "off fsync/commit", "pipeline fsync/commit"}}
	var rows []WriteRow
	for _, syncMode := range []bool{true, false} {
		for _, c := range wc.Committers {
			row := WriteRow{Committers: c, SyncCommits: syncMode}
			load := func(pipeline int) side {
				return func() (time.Duration, error) {
					took, fsyncs, err := runCommitLoad(mkdir, c, wc.OpsPerCommitter, syncMode, pipeline == 1)
					row.FsyncsPerCommit[pipeline] = float64(fsyncs) / float64(c*wc.OpsPerCommitter)
					return took, err
				}
			}
			d, err := measure(load(0), load(1))
			if err != nil {
				return nil, err
			}
			for i := range d {
				row.OpsPerSec[i] = opsPerSec(c*wc.OpsPerCommitter, d[i])
			}
			rows = append(rows, row)
			mode := "off"
			if syncMode {
				mode = "on"
			}
			t.add(fi(int64(c)), mode, f1(row.OpsPerSec[0]), f1(row.OpsPerSec[1]),
				f2(row.FsyncsPerCommit[0]), f2(row.FsyncsPerCommit[1]))
		}
	}
	cfg.emit(t, "Commit throughput (host write path, group-commit ablation)")
	return rows, nil
}

// runCommitLoad opens a fresh host store and drives committers concurrent
// goroutines, each committing ops single-node transactions, returning how
// long the commits took and how many fsyncs they issued.
func runCommitLoad(mkdir func(string) string, committers, ops int, syncCommits, pipeline bool) (time.Duration, int64, error) {
	db, err := hostdb.Open(hostdb.Options{Dir: mkdir("write"), SyncCommits: syncCommits})
	if err != nil {
		return 0, 0, err
	}
	defer db.Close()
	commit := (*hostdb.Tx).Commit
	if !pipeline {
		var serial sync.Mutex // pipeline=off: one committer inside Commit at a time
		commit = func(tx *hostdb.Tx) (model.Timestamp, error) {
			serial.Lock()
			defer serial.Unlock()
			return tx.Commit()
		}
	}
	errs := make([]error, committers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				tx := db.Begin()
				if _, err := tx.CreateNode([]string{"Bench"},
					model.Properties{"w": model.IntValue(int64(w*ops + i))}); err != nil {
					tx.Rollback()
					errs[w] = err
					return
				}
				if _, err := commit(tx); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	took := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("bench: commit load (c=%d): %w", committers, err)
		}
	}
	return took, db.Stats().Fsyncs, nil
}
