package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aion/internal/bench"
)

// TestFailureRemovesTempDir runs invocations that fail — an unknown
// experiment, and an experiment that ran but whose report cannot be written —
// and checks that each still removes the aion-bench-* directory it made under
// TMPDIR.
func TestFailureRemovesTempDir(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "report.json")
	for _, args := range [][]string{
		{"-exp", "nosuch"},
		{"-exp", "table3", "-datasets", "DBLP", "-scale", "100000", "-json", missing},
	} {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		if err := run(args); err == nil {
			t.Fatalf("run(%q) succeeded, want an error", args)
		}
		left, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			t.Errorf("run(%q) left %s behind in TMPDIR", args, e.Name())
		}
	}
}

// speedups is a Fig 12 or Fig 14 table as aion-bench prints it on DBLP: one
// row per label, the incremental run 1 ms and the recomputation speedup× that.
func speedups(title string, rows map[string]float64) bench.Table {
	t := bench.Table{Title: title, Columns: []string{"Algorithm(#snapshots)", "Dataset", "incremental (ms)", "recompute (ms)", "speedup (x)"}}
	for label, speedup := range rows {
		t.Rows = append(t.Rows, []any{label, "DBLP", 1.0, speedup, math.Round(10*speedup) / 10})
	}
	return t
}

// TestPaperShapeNamesTheBrokenFigure: tables in the paper's shape pass, and
// each break of Fig 10's, Fig 12's or Fig 14's shape fails naming its figure.
func TestPaperShapeNamesTheBrokenFigure(t *testing.T) {
	fig10 := func(overhead any) bench.Table {
		return bench.Table{Title: "Fig 10: temporal storage overhead (on disk)",
			Columns: []string{"Dataset", "Neo4j (KB)", "TimeStore (KB)", "LineageStore (KB)", "overhead (%)"},
			Rows:    [][]any{{"DBLP", 1536.0, 204.8, 256.0, overhead}}}
	}
	fig12 := func(at10, at100 float64) bench.Table {
		return speedups("Fig 12: incremental execution speedup over recomputation", map[string]float64{"PR(10)": at10, "PR(100)": at100})
	}
	fig14 := func(speedup float64) bench.Table {
		return speedups("Fig 14: incremental speedup with procedures over Bolt", map[string]float64{"AVG(10)": speedup})
	}
	// 2.01× and 2.04× both print a 2.0 speedup: the gate reads the ms cells.
	for _, shaped := range [][]bench.Table{{fig10(30.0), fig12(1.3, 2.5), fig14(5)}, {fig12(2.01, 2.04)}, nil} {
		if err := paperShape(shaped); err != nil {
			t.Fatalf("tables in the paper's shape: %v", err)
		}
	}
	for _, c := range []struct {
		figure string
		tables []bench.Table
	}{
		{"Fig 10", []bench.Table{fig10(45.0)}},
		{"Fig 10", []bench.Table{fig10("n/a")}},      // a cell that is not a number
		{"Fig 12", []bench.Table{fig12(0.5, 0.9)}},   // recomputation wins at 100
		{"Fig 12", []bench.Table{fig12(2.5, 2.1)}},   // 10 beats 100
		{"Fig 12", []bench.Table{fig12(2.04, 2.01)}}, // 10 beats 100, both printed 2.0
		{"Fig 14", []bench.Table{fig12(1.3, 2.5), fig14(3.9)}},
	} {
		if err := paperShape(c.tables); err == nil || !strings.HasPrefix(err.Error(), c.figure+":") {
			t.Errorf("a broken %s: %v", c.figure, err)
		}
	}
}

// TestPaperShapeReadsTheReport: the verdict run returns, from the tables in
// memory, is the one paperShape gives on the tables decoded from the -json
// file it wrote.
func TestPaperShapeReadsTheReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "paper.json")
	t.Setenv("TMPDIR", t.TempDir())
	verdict := run([]string{"-exp", "fig10,fig12,fig14", "-datasets", "DBLP", "-scale", "20000", "-json", path})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct{ Tables []bench.Table }
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Tables) != 3 {
		t.Fatalf("the report holds %d tables, want Figs 10, 12 and 14", len(report.Tables))
	}
	if got := paperShape(report.Tables); fmt.Sprint(got) != fmt.Sprint(verdict) {
		t.Errorf("verdict on the file: %v; from memory: %v", got, verdict)
	}
}
