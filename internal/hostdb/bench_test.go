package hostdb

import (
	"fmt"
	"sync"
	"testing"

	"aion/internal/model"
)

// BenchmarkCommitThroughput measures the synchronous-commit write path at
// several committer counts (the serialised-committer baseline lives in
// `aion-bench -exp write`). It is part of the bench-smoke set.
func BenchmarkCommitThroughput(b *testing.B) {
	for _, committers := range []int{1, 16} {
		b.Run(fmt.Sprintf("committers=%d", committers), func(b *testing.B) {
			db, err := Open(Options{Dir: b.TempDir(), SyncCommits: true})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()

			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/committers + 1
			for w := 0; w < committers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						tx := db.Begin()
						if _, err := tx.CreateNode([]string{"Bench"},
							model.Properties{"i": model.IntValue(int64(i))}); err != nil {
							b.Error(err)
							return
						}
						if _, err := tx.Commit(); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			st := db.Stats()
			if st.Commits > 0 {
				b.ReportMetric(float64(st.Fsyncs)/float64(st.Commits), "fsyncs/commit")
			}
		})
	}
}
