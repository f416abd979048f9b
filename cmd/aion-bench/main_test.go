package main

import (
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

// TestPaperShapeNamesTheBrokenFigure: rows in the paper's shape pass, and
// each break of Fig 10's, Fig 12's or Fig 14's shape fails naming its figure.
func TestPaperShapeNamesTheBrokenFigure(t *testing.T) {
	fig10 := []bench.Fig10Row{{Dataset: "DBLP", OverheadRatio: 0.3}}
	fig12 := func(at10, at100 float64) []bench.Fig12Row {
		return []bench.Fig12Row{
			{Dataset: "DBLP", Algorithm: "PR", Snapshots: 10, Speedup: at10},
			{Dataset: "DBLP", Algorithm: "PR", Snapshots: 100, Speedup: at100},
		}
	}
	fig14 := func(speedup float64) []bench.Fig12Row {
		return []bench.Fig12Row{{Dataset: "DBLP", Algorithm: "AVG", Snapshots: 10, Speedup: speedup}}
	}
	if err := paperShape(fig10, fig12(1.3, 2.5), fig14(5)); err != nil {
		t.Fatalf("rows in the paper's shape: %v", err)
	}
	for _, c := range []struct {
		figure string
		err    error
	}{
		{"Fig 10", paperShape([]bench.Fig10Row{{Dataset: "DBLP", OverheadRatio: 0.45}}, nil, nil)},
		{"Fig 12", paperShape(nil, fig12(0.5, 0.9), nil)}, // recomputation wins at 100
		{"Fig 12", paperShape(nil, fig12(2.5, 2.1), nil)}, // 10 beats 100
		{"Fig 14", paperShape(nil, nil, fig14(3.9))},
	} {
		if c.err == nil || !strings.HasPrefix(c.err.Error(), c.figure+":") {
			t.Errorf("a broken %s: %v", c.figure, c.err)
		}
	}
}
