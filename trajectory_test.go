package aion_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// trajectoryFields are the keys every BENCH_trajectory.json row carries; a
// value the source did not record is null, never absent.
var trajectoryFields = []string{
	"pr", "source", "commit", "tree", "parent", "seed", "pairs", "seconds", "workload", "metric",
	"parent_median", "parent_q1", "parent_q3", "change_median", "change_q1", "change_q3",
	"wins", "losses", "ties", "verdict", "exact", "box",
}

// checkRow reports what is wrong with one row: a missing field, or a
// claimable verdict its own numbers do not carry — at least ten pairs, wins
// in nine tenths of them, and medians further apart in the metric's better
// direction than the parent's quartiles are.
func checkRow(raw []byte, better map[string]string) error {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return err
	}
	for _, f := range trajectoryFields {
		if _, ok := fields[f]; !ok {
			return fmt.Errorf("no %q field", f)
		}
	}
	var r struct {
		Pairs        int
		Metric       string
		ParentMedian *float64 `json:"parent_median"`
		ParentQ1     *float64 `json:"parent_q1"`
		ParentQ3     *float64 `json:"parent_q3"`
		ChangeMedian *float64 `json:"change_median"`
		Wins         *int
		Losses       *int
		Ties         *int
		Verdict      *string
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return err
	}
	if r.Verdict == nil || !strings.Contains(*r.Verdict, "claimable") {
		return nil
	}
	if r.Wins == nil || r.Losses == nil || r.Ties == nil || *r.Wins+*r.Losses+*r.Ties != r.Pairs {
		return fmt.Errorf("claimable, but its wins/losses/ties do not add up to its %d pairs", r.Pairs)
	}
	if r.Pairs < 10 || *r.Wins*10 < 9*r.Pairs {
		return fmt.Errorf("claimable on %d wins in %d pairs", *r.Wins, r.Pairs)
	}
	if r.ParentMedian == nil || r.ParentQ1 == nil || r.ParentQ3 == nil || r.ChangeMedian == nil {
		return fmt.Errorf("claimable without both medians and the parent's quartiles")
	}
	gain := *r.ChangeMedian - *r.ParentMedian
	switch better[r.Metric] {
	case "lower":
		gain = -gain
	case "higher":
	default:
		return fmt.Errorf("claimable on %q, which BENCHMARK.json does not gate", r.Metric)
	}
	if iqr := *r.ParentQ3 - *r.ParentQ1; gain <= iqr {
		return fmt.Errorf("claimable, but the medians are %g apart the better way and the parent's quartiles %g", gain, iqr)
	}
	return nil
}

// gatedDirections reads which way each gated metric is better.
func gatedDirections(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	better := map[string]string{}
	for _, m := range spec.EndToEnd {
		better[m.Name] = m.Better
	}
	return better
}

// TestTrajectoryRows holds BENCH_trajectory.json — the before/after rows every
// scripts/benchmark-ab.sh run appends, and the earlier A/B tables transcribed
// — to its format: one row a line, as the script appends them, every field in
// every row, and no claimable verdict its own numbers do not support.
func TestTrajectoryRows(t *testing.T) {
	raw, err := os.ReadFile("BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	var all []json.RawMessage
	if err := json.Unmarshal(raw, &all); err != nil {
		t.Fatalf("BENCH_trajectory.json: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != len(all)+2 {
		t.Fatalf("%d rows on %d lines: want one row a line between [ and ]", len(all), len(lines))
	}
	better := gatedDirections(t)
	for i, row := range all {
		if err := checkRow(row, better); err != nil {
			t.Errorf("row %d: %v\n%s", i, err, row)
		}
	}
}

// TestTrajectoryCheckRejects: the check fails a row that lacks a field, and a
// claimable verdict short of nine wins in ten, of ten pairs, or of medians
// further apart than the parent's quartiles.
func TestTrajectoryCheckRejects(t *testing.T) {
	better := gatedDirections(t)
	good := map[string]any{}
	for _, f := range trajectoryFields {
		good[f] = nil
	}
	for k, v := range map[string]any{"pairs": 10, "metric": "heap_live_mb", "verdict": "better (claimable)",
		"parent_median": 66.3, "parent_q1": 66.2, "parent_q3": 66.4, "change_median": 54.5,
		"wins": 10, "losses": 0, "ties": 0} {
		good[k] = v
	}
	encode := func(edit func(map[string]any)) []byte {
		r := map[string]any{}
		for k, v := range good {
			r[k] = v
		}
		edit(r)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := checkRow(encode(func(map[string]any) {}), better); err != nil {
		t.Fatalf("a supported claim rejected: %v", err)
	}
	for name, edit := range map[string]func(map[string]any){
		"no box field":         func(r map[string]any) { delete(r, "box") },
		"8 wins in 10":         func(r map[string]any) { r["wins"], r["losses"] = 8, 2 },
		"9 pairs":              func(r map[string]any) { r["pairs"], r["wins"] = 9, 9 },
		"w/l/t not the pairs":  func(r map[string]any) { r["ties"] = 1 },
		"inside the quartiles": func(r map[string]any) { r["change_median"] = 66.25 },
		"the worse direction":  func(r map[string]any) { r["change_median"] = 78.1 },
		"no quartiles":         func(r map[string]any) { r["parent_q1"] = nil },
		"an ungated metric":    func(r map[string]any) { r["metric"] = "driver.ops_per_s" },
	} {
		if err := checkRow(encode(edit), better); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
