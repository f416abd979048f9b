// Command aion-bench regenerates the paper's evaluation tables and figures
// (Sec 6) on scaled-down synthetic stand-ins for the Table 3 datasets.
//
// Usage:
//
//	aion-bench -exp all                 # every experiment
//	aion-bench -exp fig7 -scale 100     # one figure at 1/100 scale
//	aion-bench -exp table3,fig6,fig11
//
// Experiments: table3, table4, fig6, fig7, fig8, fig9, fig10, fig11,
// fig12, fig13, fig14, ext (incremental SSSP/colouring extension).
//
// -json <path> additionally writes every printed table — title, columns and
// rows, numeric cells as numbers — as one JSON report. It exits non-zero,
// naming the figure, when a printed table, the record that report holds,
// breaks the paper's shape: Aion's Fig 10 storage overhead on a dataset is
// over the paper's 41 %; in Fig 12 incremental execution does not win at 100
// snapshots, or does not speed up more at 100 snapshots than at 10; in Fig 14
// it is under 4× faster.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"aion/internal/bench"
	"aion/internal/vfs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aion-bench:", err)
		os.Exit(1)
	}
}

// mkdirFailed carries mkdir's error out of an experiment to run's recover.
type mkdirFailed struct{ error }

// run parses args and runs the experiments they name. Every failure comes
// back as an error, so the temp directory's deferred removal always runs.
func run(args []string) (err error) {
	flags := flag.NewFlagSet("aion-bench", flag.ExitOnError)
	var (
		exp      = flags.String("exp", "all", "comma-separated experiments to run (or 'all')")
		scale    = flags.Int("scale", 1000, "dataset scale divisor vs Table 3 (100 = larger, slower)")
		datasets = flags.String("datasets", "", "comma-separated dataset subset (default: first four)")
		seed     = flags.Int64("seed", 42, "workload generation seed")
		pointOps = flags.Int("pointops", 5000, "point queries per system and run (paper: 1M)")
		globals  = flags.Int("globalops", 5, "snapshot retrievals per system and run (paper: 100)")
		workdir  = flags.String("dir", "", "working directory for store files (default: temp)")
		jsonPath = flags.String("json", "", "write every printed table to this JSON file")
	)
	flags.Parse(args)

	report := &bench.Report{}
	cfg := bench.Config{
		Scale:     *scale,
		Seed:      *seed,
		PointOps:  *pointOps,
		GlobalOps: *globals,
		Out:       os.Stdout,
		Report:    report,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}

	base := *workdir
	if base == "" {
		if base, err = vfs.MkdirTemp("", "aion-bench-*"); err != nil {
			return err
		}
		//aionlint:ignore vfsseam operator scratch cleanup of a temp dir this process created; store files are never removed through this path
		defer os.RemoveAll(base)
	}
	defer func() {
		if p := recover(); p != nil {
			mf, ok := p.(mkdirFailed)
			if !ok {
				panic(p)
			}
			err = mf.error
		}
	}()
	mkdir := func(name string) string {
		d, err := vfs.MkdirTemp(base, strings.ReplaceAll(name, "/", "_")+"-*")
		if err != nil {
			panic(mkdirFailed{err})
		}
		return d
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	ran := 0
	experiment := func(name string, fn func() error) {
		if err != nil || !all && !want[name] {
			return
		}
		ran++
		fmt.Printf("\n--- running %s ---\n", name)
		if err = fn(); err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
	}

	experiment("table3", func() error { _, err := bench.RunTable3(cfg); return err })
	experiment("fig6", func() error { _, err := bench.RunFig6(cfg, mkdir); return err })
	experiment("fig7", func() error { _, err := bench.RunFig7(cfg, mkdir); return err })
	experiment("fig8", func() error { _, err := bench.RunFig8(cfg, mkdir, nil, 0); return err })
	experiment("table4", func() error { _, err := bench.RunTable4(cfg, mkdir); return err })
	experiment("fig9", func() error { _, err := bench.RunFig9(cfg, mkdir, 1000, 8); return err })
	experiment("fig10", func() error { _, err := bench.RunFig10(cfg, mkdir); return err })
	experiment("fig11", func() error { _, err := bench.RunFig11(cfg, mkdir, nil, 32); return err })
	experiment("fig12", func() error { _, err := bench.RunFig12(cfg, []int{10, 100}); return err })
	experiment("fig13", func() error { _, err := bench.RunFig13(cfg, mkdir, 8, 100); return err })
	experiment("fig14", func() error { _, err := bench.RunFig14(cfg, mkdir, []int{10}); return err })
	experiment("ext", func() error { _, err := bench.RunExtensionIncremental(cfg, []int{10, 100}); return err })

	if err != nil {
		return err
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment(s) %q", *exp)
	}
	if *jsonPath != "" {
		if err := report.WriteFile(nil, *jsonPath); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d table(s) to %s\n", len(report.Tables()), *jsonPath)
	}
	return paperShape(report.Tables())
}

// paperShape returns an error naming the first figure whose table breaks the
// paper's shape, nil when none does. It reads the tables as BENCH_paper.json
// holds them, finding Figs 10, 12 and 14 by title. A missing cell reads NaN,
// which fails every predicate: each is written as !(holds).
func paperShape(tables []bench.Table) error {
	for _, t := range tables {
		fig, _, _ := strings.Cut(t.Title, ":")
		// Speedups come from the two measured cells: the speedup column
		// rounds to one decimal, which can tie 100 snapshots with 10.
		speedup := func(i int) float64 { return t.Num(i, "recompute (ms)") / t.Num(i, "incremental (ms)") }
		at10 := map[string]float64{} // Fig 12's speedups at 10 snapshots, by "alg on dataset"
		for i := range t.Rows {
			if alg, ok := strings.CutSuffix(t.Text(i, "Algorithm(#snapshots)"), "(10)"); ok {
				at10[alg+" on "+t.Text(i, "Dataset")] = speedup(i)
			}
		}
		for i := range t.Rows {
			s, on := speedup(i), " on "+t.Text(i, "Dataset")
			alg, at100 := strings.CutSuffix(t.Text(i, "Algorithm(#snapshots)"), "(100)")
			s10, has10 := at10[alg+on]
			switch {
			case fig == "Fig 10" && !(t.Num(i, "overhead (%)") <= 41): // the paper's Aion adds 29–41 %
				return fmt.Errorf("Fig 10: Aion adds %.1f %% to Neo4j's storage%s, over the paper's 41 %%", t.Num(i, "overhead (%)"), on)
			case fig == "Fig 12" && at100 && !(s > 1):
				return fmt.Errorf("Fig 12: incremental %s%s is %.2f× recomputation at 100 snapshots; it must win at 100", alg, on, s)
			case fig == "Fig 12" && at100 && has10 && !(s > s10):
				return fmt.Errorf("Fig 12: incremental %s%s speeds up %.2f× at 100 snapshots and %.2f× at 10; 100 must beat 10 everywhere", alg, on, s, s10)
			case fig == "Fig 14" && !(s >= 4):
				return fmt.Errorf("Fig 14: incremental %s over Bolt%s is %.2f× faster than recomputation; it must be at least 4× everywhere", alg, on, s)
			}
		}
	}
	return nil
}
