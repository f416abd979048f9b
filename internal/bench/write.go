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
	// at every level (default 200).
	OpsPerCommitter int
	// SyncModes selects which SyncCommits settings to measure
	// (default both: durable commits first, then async).
	SyncModes []bool
}

func (w *WriteConfig) defaults() {
	if len(w.Committers) == 0 {
		w.Committers = []int{1, 4, 16, 64}
	}
	if w.OpsPerCommitter <= 0 {
		w.OpsPerCommitter = 200
	}
	if len(w.SyncModes) == 0 {
		w.SyncModes = []bool{true, false}
	}
}

// RunWritePath measures host commit throughput across committer counts,
// with SyncCommits on/off and the group-commit pipeline on/off. "off" is a
// harness shim, not a host option: committers are serialised by a mutex
// around Commit, so every round of the one production commit path is a
// one-transaction group — one log append and, when synchronous, two fsyncs
// per transaction, the pre-pipeline cost. Each transaction
// creates one node with a small property — the smallest realistic commit,
// which maximises per-commit overhead and therefore isolates what the
// pipeline coalesces.
func RunWritePath(cfg Config, mkdir func(string) string, wc WriteConfig) ([]Record, error) {
	cfg.Defaults()
	wc.defaults()

	t := &table{header: []string{"committers", "sync", "pipeline", "ops/s",
		"p50 us", "p99 us", "fsyncs", "fsync/commit"}}
	var out []Record
	for _, syncMode := range wc.SyncModes {
		for _, pipeline := range []bool{false, true} {
			for _, c := range wc.Committers {
				rec, err := runCommitLoad(mkdir, c, wc.OpsPerCommitter, syncMode, pipeline)
				if err != nil {
					return nil, err
				}
				out = append(out, rec)
				cfg.record(rec)
				t.add(fi(int64(c)), onOff(syncMode), onOff(pipeline),
					f1(rec.OpsPerSec), f1(rec.P50Micros), f1(rec.P99Micros),
					fi(rec.Fsyncs), f2(rec.FsyncsPerCommit))
			}
		}
	}
	t.print(cfg.Out, "Commit throughput (host write path, group-commit ablation)")
	return out, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// runCommitLoad opens a fresh host store and drives committers concurrent
// goroutines, each committing ops single-node transactions, returning the
// aggregate throughput and latency figures.
func runCommitLoad(mkdir func(string) string, committers, ops int, syncCommits, pipeline bool) (Record, error) {
	db, err := hostdb.Open(hostdb.Options{
		Dir:         mkdir("write"),
		SyncCommits: syncCommits,
	})
	if err != nil {
		return Record{}, err
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

	lats := make([][]time.Duration, committers)
	errs := make([]error, committers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, ops)
			for i := 0; i < ops; i++ {
				t0 := time.Now()
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
				mine = append(mine, time.Since(t0))
			}
			lats[w] = mine
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return Record{}, fmt.Errorf("bench: commit load (c=%d): %w", committers, err)
		}
	}

	all := make([]time.Duration, 0, committers*ops)
	for _, l := range lats {
		all = append(all, l...)
	}
	st := db.Stats()
	total := committers * ops
	rec := Record{
		Name: fmt.Sprintf("commit/c=%d/sync=%s/pipeline=%s",
			committers, onOff(syncCommits), onOff(pipeline)),
		Ops:         total,
		OpsPerSec:   opsPerSec(total, elapsed),
		P50Micros:   percentileMicros(all, 0.50),
		P99Micros:   percentileMicros(all, 0.99),
		Fsyncs:      st.Fsyncs,
		Committers:  committers,
		SyncCommits: syncCommits,
		GroupCommit: pipeline,
	}
	if total > 0 {
		rec.FsyncsPerCommit = float64(st.Fsyncs) / float64(total)
	}
	return rec, nil
}
