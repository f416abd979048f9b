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
		tab, err := bench.RunFig6(c, dirFactory(b))
		if err != nil {
			b.Fatal(err)
		}
		last := len(tab.Rows) - 1 // the largest dataset: shapes need size
		b.ReportMetric(tab.Num(last, "Aion (ops/s)"), "aion-ops/s")
		b.ReportMetric(tab.Num(last, "Raphtory (ops/s)"), "raphtory-ops/s")
	}
}

func BenchmarkFig7GlobalQueries(b *testing.B) {
	c := benchConfig(b)
	for i := 0; i < b.N; i++ {
		tab, err := bench.RunFig7(c, dirFactory(b))
		if err != nil {
			b.Fatal(err)
		}
		last := len(tab.Rows) - 1 // the largest dataset: shapes need size
		aion := tab.Num(last, "Aion (ms)")
		b.ReportMetric(tab.Num(last, "Raphtory (ms)")/aion, "speedup-vs-raphtory")
		b.ReportMetric(tab.Num(last, "Gradoop (ms)")/aion, "speedup-vs-gradoop")
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
		tab, err := bench.RunFig9(c, dirFactory(b), 500, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Num(0, "TimeStore"), "timestore-normalized")
		b.ReportMetric(tab.Num(0, "TS+LS"), "both-normalized")
	}
}

func BenchmarkFig10Storage(b *testing.B) {
	c := benchConfig(b)
	c.Datasets = []string{"DBLP"}
	for i := 0; i < b.N; i++ {
		tab, err := bench.RunFig10(c, dirFactory(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Num(0, "overhead (%)")/100, "overhead-ratio")
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
		tab, err := bench.RunFig12(c, []int{10})
		if err != nil {
			b.Fatal(err)
		}
		for i := range tab.Rows {
			if tab.Text(i, "Algorithm(#snapshots)") == "AVG(10)" {
				b.ReportMetric(tab.Num(i, "recompute (ms)")/tab.Num(i, "incremental (ms)"), "avg-speedup")
			}
		}
	}
}

func BenchmarkFig13Bolt(b *testing.B) {
	c := benchConfig(b)
	c.Datasets = []string{"DBLP"}
	for i := 0; i < b.N; i++ {
		tab, err := bench.RunFig13(c, dirFactory(b), 4, 25)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Num(0, "read-only (q/s)"), "readonly-q/s")
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

// BenchmarkAblationPlannerThreshold runs Fig 8, whose planner column puts
// the 30 % store-selection heuristic of Sec 5.1 beside the measured
// LineageStore/TimeStore crossover, and reports the crossover's hop count on
// the largest dataset.
func BenchmarkAblationPlannerThreshold(b *testing.B) {
	hops := []int{1, 2, 4, 8}
	for i := 0; i < b.N; i++ {
		tab, err := bench.RunFig8(benchConfig(b), dirFactory(b), hops, 5)
		if err != nil {
			b.Fatal(err)
		}
		for k, h := range hops {
			if r := len(tab.Rows) - len(hops) + k; tab.Num(r, "TimeStore (ops/s)") > tab.Num(r, "LineageStore (ops/s)") {
				b.ReportMetric(float64(h), "crossover-hops")
				break
			}
		}
	}
}
