package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the A/A check reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), which
// is what the driver judges spreads with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.50), at(0.75)
}

// aaRow is one workload × metric line of the A/A report.
type aaRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"` // (q3-q1)/median
	Bound    float64   `json:"bound"`
	Past     bool      `json:"past_bound"`
}

// runAA runs n full untraced sets of the same code on the same seed and
// holds the spread of every workload × end-to-end metric against its bound:
// the benchmark judging its own steadiness. Identical work must also leave
// identical exact counters.
func runAA(n int, seed int64, seconds int) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 sets to have a spread")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the bounds come from BENCHMARK.json in the working directory: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	sets := make([]setResult, n)
	for i := range sets {
		fmt.Printf("== set %d of %d, seed %d\n", i+1, n, seed)
		if sets[i], err = runAll(os.Stdout, seed, seconds, "0"); err != nil {
			return err
		}
		for _, w := range workloads {
			if a, b := sets[0][w.name].exact, sets[i][w.name].exact; a != b {
				return fmt.Errorf("%s: identical work left different exact counters:\nset 1: %s\nset %d: %s", w.name, a, i+1, b)
			}
		}
	}
	var rows []aaRow
	past := 0
	fmt.Printf("\n%-14s %-22s %14s %14s %14s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			r := aaRow{Workload: w.name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound}
			for _, set := range sets {
				r.Values = append(r.Values, set[w.name].metrics[m.Name])
			}
			r.Q1, r.Median, r.Q3 = quartiles(r.Values)
			r.Spread = ratio(r.Q3-r.Q1, r.Median)
			// setup_s is held to its bound only between medians of sets,
			// never by its spread, as in the driver.
			r.Past = r.Spread > r.Bound && m.Name != "setup_s"
			mark := ""
			if r.Past {
				past++
				mark = "  PAST BOUND"
			}
			fmt.Printf("%-14s %-22s %14.4f %14.4f %14.4f %8.4f %6.3f%s\n", r.Workload, r.Metric, r.Q1, r.Median, r.Q3, r.Spread, r.Bound, mark)
			rows = append(rows, r)
		}
	}
	out, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(scratchRoot+"/aa.json", append(out, '\n'), 0o644); err != nil {
		return err
	}
	if past > 0 {
		return fmt.Errorf("%d workload × metric spreads are past their bound", past)
	}
	return nil
}
