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

func TestRunTable3(t *testing.T) {
	var out bytes.Buffer
	rows, err := RunTable3(tiny(t, &out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Nodes <= 0 || r.Rels <= 0 || r.AionBytes <= 0 || r.Neo4jBytes <= 0 || r.ResidentBytes <= 0 {
			t.Errorf("row %+v", r)
		}
		if r.AionBytes >= r.Neo4jBytes {
			t.Errorf("%s: Aion memory %d should be below Neo4j %d (Table 3 shape)",
				r.Dataset, r.AionBytes, r.Neo4jBytes)
		}
	}
	if !strings.Contains(out.String(), "Table 3") {
		t.Error("missing table header")
	}
}

func TestRunFig6(t *testing.T) {
	var out bytes.Buffer
	rows, err := RunFig6(tiny(t, &out), dirFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AionOpsPerSec <= 0 || r.RaphtoryOpsPerSec <= 0 {
			t.Errorf("zero throughput: %+v", r)
		}
	}
}

func TestRunFig7(t *testing.T) {
	var out bytes.Buffer
	rows, err := RunFig7(tiny(t, &out), dirFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AionSec <= 0 || r.RaphtorySec <= 0 || r.GradoopSec <= 0 {
			t.Errorf("zero runtime: %+v", r)
		}
	}
}

func TestRunFig8(t *testing.T) {
	var out bytes.Buffer
	rows, err := RunFig8(tiny(t, &out), dirFactory(t), []int{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 datasets x 2 hop counts
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestRunTable4(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	rows, err := RunTable4(c, dirFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].System != "Aion" || !rows[0].Persistent {
		t.Errorf("aion row: %+v", rows[0])
	}
}

func TestRunFig9(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.Datasets = []string{"DBLP"}
	rows, err := RunFig9(c, dirFactory(t), 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Baseline <= 0 {
		t.Fatal("baseline zero")
	}
	// At unit-test scale the datasets are a few dozen updates, so one-off
	// costs (fsync, temp files) dominate and the normalized ratios are
	// meaningless noise; only sanity-check positivity here. Magnitudes are
	// validated by the real `aion-bench -exp fig9` runs.
	for _, v := range []float64{r.TSLS, r.Lineage, r.Time} {
		if v <= 0 {
			t.Errorf("normalized throughput not positive: %+v", r)
		}
	}
}

func TestRunFig10(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.Datasets = []string{"DBLP"}
	rows, err := RunFig10(c, dirFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Neo4jBytes <= 0 || r.TimeBytes <= 0 || r.LineageBytes <= 0 {
		t.Errorf("zero storage: %+v", r)
	}
}

func TestRunFig11(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.PointOps = 400
	rows, err := RunFig11(c, dirFactory(t), []int{8, 4, 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Materialize-always must cost the most storage.
	if rows[2].StorageBytes <= rows[0].StorageBytes {
		t.Errorf("threshold 1 (%d B) should exceed threshold 8 (%d B)",
			rows[2].StorageBytes, rows[0].StorageBytes)
	}
}

func TestRunFig12(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.Datasets = []string{"DBLP"}
	rows, err := RunFig12(c, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// At unit-test scale (tens of updates) both sides run in
		// microseconds, so only check that the measurement machinery
		// produced sane numbers; real speedups are validated by
		// `aion-bench -exp fig12`.
		if r.Speedup <= 0 {
			t.Errorf("speedup: %+v", r)
		}
	}
}

func TestRunFig13(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.Datasets = []string{"DBLP"}
	rows, err := RunFig13(c, dirFactory(t), 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.ReadOnly <= 0 || r.Writes10 <= 0 || r.Writes20 <= 0 {
		t.Errorf("throughput: %+v", r)
	}
}

func TestRunFig14(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.Datasets = []string{"DBLP"}
	rows, err := RunFig14(c, dirFactory(t), []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // AVG + BFS
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestRunExtensionIncremental(t *testing.T) {
	var out bytes.Buffer
	c := tiny(t, &out)
	c.Datasets = []string{"DBLP"}
	rows, err := RunExtensionIncremental(c, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Algorithm != "SSSP" || rows[1].Algorithm != "COLOR" {
		t.Fatalf("rows = %+v", rows)
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
