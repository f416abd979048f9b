// Top-level benchmarks: one testing.B target per table/figure of the
// paper's evaluation (Sec 6), wrapping the internal/bench harness at a
// benchmark-friendly scale. Run everything with
//
//	go test -bench=. -benchmem
//
// or a single experiment with e.g. -bench=Fig7. For the full printed
// tables use cmd/aion-bench.
package aion_test

import (
	"os"
	"testing"

	"aion/internal/bench"
)

// benchConfig sizes the workloads for repeatable single-digit-second runs.
func benchConfig(b *testing.B) bench.Config {
	b.Helper()
	return bench.Config{
		Scale:     1000, // DBLP: 300 nodes / 2100 rels; Pokec: 1.6k / 30k
		Datasets:  []string{"DBLP", "Pokec"},
		Seed:      42,
		PointOps:  2000,
		GlobalOps: 5,
	}
}

func dirFactory(b *testing.B) func(string) string {
	b.Helper()
	return func(name string) string {
		d, err := os.MkdirTemp(b.TempDir(), "exp-*")
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
}

func BenchmarkTable3Datasets(b *testing.B) {
	c := benchConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable3(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6PointQueries(b *testing.B) {
	c := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig6(c, dirFactory(b))
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1] // the largest dataset: shapes need size
		b.ReportMetric(last.AionOpsPerSec, "aion-ops/s")
		b.ReportMetric(last.RaphtoryOpsPerSec, "raphtory-ops/s")
	}
}

func BenchmarkFig7GlobalQueries(b *testing.B) {
	c := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig7(c, dirFactory(b))
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1] // the largest dataset: shapes need size
		b.ReportMetric(last.RaphtorySec/last.AionSec, "speedup-vs-raphtory")
		b.ReportMetric(last.GradoopSec/last.AionSec, "speedup-vs-gradoop")
	}
}

func BenchmarkFig8NHop(b *testing.B) {
	c := benchConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig8(c, dirFactory(b), []int{1, 2, 4}, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Complexity(b *testing.B) {
	c := benchConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable4(c, dirFactory(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Ingestion(b *testing.B) {
	c := benchConfig(b)
	c.Datasets = []string{"DBLP"}
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig9(c, dirFactory(b), 500, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Time, "timestore-normalized")
		b.ReportMetric(rows[0].TSLS, "both-normalized")
	}
}

func BenchmarkFig10Storage(b *testing.B) {
	c := benchConfig(b)
	c.Datasets = []string{"DBLP"}
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig10(c, dirFactory(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].OverheadRatio, "overhead-ratio")
	}
}

func BenchmarkFig11Materialization(b *testing.B) {
	c := benchConfig(b)
	c.PointOps = 1000
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig11(c, dirFactory(b), []int{16, 4, 1}, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Incremental(b *testing.B) {
	c := benchConfig(b)
	c.Datasets = []string{"DBLP"}
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig12(c, []int{10})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algorithm == "AVG" {
				b.ReportMetric(r.Speedup, "avg-speedup")
			}
		}
	}
}

func BenchmarkFig13Bolt(b *testing.B) {
	c := benchConfig(b)
	c.Datasets = []string{"DBLP"}
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig13(c, dirFactory(b), 4, 25)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ReadOnly, "readonly-q/s")
	}
}

func BenchmarkFig14Procedures(b *testing.B) {
	c := benchConfig(b)
	c.Datasets = []string{"DBLP"}
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig14(c, dirFactory(b), []int{5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionIncremental measures incremental SSSP and graph
// colouring — the Sec 5.2 algorithm classes the paper claims but does not
// evaluate.
func BenchmarkExtensionIncremental(b *testing.B) {
	c := benchConfig(b)
	c.Datasets = []string{"DBLP"}
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunExtensionIncremental(c, []int{10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSnapshotPolicy sweeps the TimeStore snapshot interval —
// the design decision Sec 4.3 leaves to a user policy — showing the
// trade-off between snapshot storage and GetGraph latency.
func BenchmarkAblationSnapshotPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.RunSnapshotPolicyAblation(benchConfig(b)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPlannerThreshold sweeps the 30 % store-selection
// heuristic of Sec 5.1 to show where the LineageStore/TimeStore crossover
// actually falls.
func BenchmarkAblationPlannerThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.RunPlannerThresholdAblation(benchConfig(b)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationParallelIO sweeps the snapshot/replay pipeline worker
// count (Options.ParallelIO), comparing the inline pipeline (1 worker)
// against the multi-core (de)serialization stages.
func BenchmarkAblationParallelIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.RunParallelIOAblation(benchConfig(b)); err != nil {
			b.Fatal(err)
		}
	}
}
