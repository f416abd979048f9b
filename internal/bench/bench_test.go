package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

// tiny returns a config small enough for unit-test latency.
func tiny(t *testing.T, out *bytes.Buffer) Config {
	t.Helper()
	return Config{
		Scale:     20000, // DBLP: ~16 nodes is too small; 20000 -> min floor
		Datasets:  []string{"DBLP", "WikiTalk"},
		Seed:      7,
		PointOps:  500,
		GlobalOps: 3,
		Out:       out,
	}
}

func dirFactory(t *testing.T) func(string) string {
	t.Helper()
	return func(name string) string {
		d := t.TempDir()
		return d
	}
}

// positive fails t on every cell of columns in tab that is not a positive
// number.
func positive(t *testing.T, tab Table, columns ...string) {
	t.Helper()
	for i := range tab.Rows {
		for _, col := range columns {
			if v := tab.Num(i, col); !(v > 0) {
				t.Errorf("%s: row %d's %q is %v, want a positive number", tab.Title, i, col, v)
			}
		}
	}
}

func TestRunTable3(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.Scale = 1000 // the harness default: the memory columns at the size make paper prints
	tab, err := RunTable3(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	positive(t, tab, "|V|", "|E|", "Neo4j mem (KB)", "Aion accounted (KB)", "Aion resident (KB)")
	for i := range tab.Rows {
		if aion, neo4j := tab.Num(i, "Aion accounted (KB)"), tab.Num(i, "Neo4j mem (KB)"); !(aion < neo4j) {
			t.Errorf("%s: Aion memory %v KB should be below Neo4j %v KB (Table 3 shape)", tab.Text(i, "Dataset"), aion, neo4j)
		}
	}
	if !strings.Contains(out.String(), "Table 3") {
		t.Error("missing table header")
	}
}

func TestRunFig6(t *testing.T) {
	var out bytes.Buffer
	tab, err := RunFig6(tiny(t, &out), dirFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	positive(t, tab, "Aion (ops/s)", "Raphtory (ops/s)")
}

func TestRunFig7(t *testing.T) {
	var out bytes.Buffer
	tab, err := RunFig7(tiny(t, &out), dirFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	positive(t, tab, "Aion (ms)", "Raphtory (ms)", "Gradoop (ms)")
}

func TestRunFig8(t *testing.T) {
	var out bytes.Buffer
	tab, err := RunFig8(tiny(t, &out), dirFactory(t), []int{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // 2 datasets x 2 hop counts
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRunTable4(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	tab, err := RunTable4(c, dirFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Text(0, "System") != "Aion" || tab.Text(0, "Persistent") != "yes" {
		t.Errorf("aion row: %v", tab.Rows[0])
	}
}

func TestRunFig9(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.Datasets = []string{"DBLP"}
	tab, err := RunFig9(c, dirFactory(t), 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	// At unit-test scale the datasets are a few dozen updates, so one-off
	// costs (fsync, temp files) dominate and the normalized ratios are
	// meaningless noise; only sanity-check positivity here. Magnitudes are
	// validated by the real `aion-bench -exp fig9` runs.
	positive(t, tab, "baseline (ops/s)", "TS+LS", "LineageStore", "TimeStore")
}

func TestRunFig10(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.Datasets = []string{"DBLP"}
	c.Scale = 5000 // a TimeStore of tens of KB: tiny's DBLP writes under 2
	tab, err := RunFig10(c, dirFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	positive(t, tab, "Neo4j (KB)", "TimeStore (KB)", "LineageStore (KB)")
}

func TestRunFig11(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.PointOps = 400
	tab, err := RunFig11(c, dirFactory(t), []int{8, 4, 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Materialize-always must cost more storage than threshold 8, the 1.00
	// its storage is normalized to.
	if always := tab.Num(2, "normalized storage"); !(always > 1) {
		t.Errorf("threshold 1 stores %v× what threshold 8 does, want more", always)
	}
}

func TestRunFig12(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.Datasets = []string{"DBLP"}
	tab, err := RunFig12(c, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At unit-test scale (tens of updates) both sides run in microseconds,
	// so only check that the measurement machinery produced sane numbers;
	// real speedups are validated by `aion-bench -exp fig12`.
	positive(t, tab, "incremental (ms)", "recompute (ms)")
}

func TestRunFig13(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.Datasets = []string{"DBLP"}
	tab, err := RunFig13(c, dirFactory(t), 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	positive(t, tab, "read-only (q/s)", "10% writes (q/s)", "20% writes (q/s)")
}

func TestRunFig14(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.Datasets = []string{"DBLP"}
	tab, err := RunFig14(c, dirFactory(t), []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 { // AVG + BFS
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRunExtensionIncremental(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.Datasets = []string{"DBLP"}
	tab, err := RunExtensionIncremental(c, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || tab.Text(0, "Algorithm(#snapshots)") != "SSSP(5)" || tab.Text(1, "Algorithm(#snapshots)") != "COLOR(5)" {
		t.Fatalf("rows = %v", tab.Rows)
	}
}

// TestMeasureReadsTheWarmCost: two sides whose first call costs 50 times what
// each later one does — and a cold start, paid by whichever side runs first,
// that the two share — both read the warm cost, in either order; and the side
// that goes first rotates.
func TestMeasureReadsTheWarmCost(t *testing.T) {
	const warm, cold = time.Millisecond, 50 * time.Millisecond
	for _, sharedCold := range []bool{false, true} {
		for _, swap := range []bool{false, true} {
			shared := false
			var order []int
			fake := func(k int) side {
				first := true
				return func() (time.Duration, error) {
					order = append(order, k)
					own := first
					first = false
					if sharedCold {
						own, shared = !shared, true
					}
					if own {
						return cold, nil
					}
					return time.Duration(k+1) * warm, nil
				}
			}
			listed := []int{0, 1}
			if swap {
				listed = []int{1, 0}
			}
			d, err := measure(fake(listed[0]), fake(listed[1]))
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range listed {
				if want := time.Duration(k+1) * warm; d[i] != want {
					t.Errorf("shared cold start %v, listed %v: side %d's median is %v, want its warm cost %v", sharedCold, listed, k, d[i], want)
				}
			}
			if len(order) != 2*(rounds+1) {
				t.Fatalf("%d calls, want each side's warm-up and %d timed rounds", len(order), rounds)
			}
			if want := append(slices.Clone(listed), listed[1], listed[0]); !slices.Equal(order[2:6], want) {
				t.Errorf("call order %v: the first side does not rotate", order)
			}
		}
	}
}
