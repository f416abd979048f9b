package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// tinySize keeps every test run well under a second: DBLP/1000 is 300 nodes
// and 2 100 relationships, 4 050 updates in 64 load transactions, four
// snapshots and a cache that holds about half of them.
var tinySize = sizing{scale: 1000, batch: 64, snapshotEveryOps: 1000, snapshotCacheBytes: 368 << 10}

const tinyOps = 400

// inRepoRoot runs the test from the repository root, where the benchmark
// is meant to run and keeps its scratch directory.
func inRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Dir(wd)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

func digestOf(t *testing.T, w *workload, seed int64, n int) uint64 {
	t.Helper()
	ds, err := genDataset(seed, tinySize.scale, tinySize.batch)
	if err != nil {
		t.Fatal(err)
	}
	g := newScriptGen(ds, seed, w.mix)
	g.fill(make([]op, n))
	return g.digest.Sum64()
}

func TestSameSeedSameScript(t *testing.T) {
	for _, w := range workloads {
		a, b, c := digestOf(t, w, 7, 4000), digestOf(t, w, 7, 4000), digestOf(t, w, 8, 4000)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %016x and %016x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %016x", w.name, a)
		}
	}
}

// TestClassShares holds every workload to noise rule 4: with classes
// ordered cheapest first, the 50th percentile lies at least five points
// inside the share of the class the workload says its p50 sits in, and the
// generated mix has those shares.
func TestClassShares(t *testing.T) {
	ds, err := genDataset(1, tinySize.scale, tinySize.batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		lo := 0
		for i, cs := range w.classOrder {
			hi := lo + cs.pct
			if i == w.p50Class && (50 < lo+5 || 50 > hi-5) {
				t.Errorf("%s: p50 is not 5 points inside class %s's share [%d, %d]", w.name, classNames[cs.class], lo, hi)
			}
			lo = hi
		}
		if lo != 100 {
			t.Errorf("%s: class shares sum to %d", w.name, lo)
		}
		const n = 20000
		var got [numClasses]int
		g := newScriptGen(ds, 1, w.mix)
		for i := 0; i < n; i++ {
			got[classOf[g.next().kind]]++
		}
		for _, cs := range w.classOrder {
			if pct := 100 * float64(got[cs.class]) / n; pct < float64(cs.pct)-1 || pct > float64(cs.pct)+1 {
				t.Errorf("%s: class %s is %.1f%% of the script, want %d%%", w.name, classNames[cs.class], pct, cs.pct)
			}
		}
	}
}

// TestSameSeedSameCounters runs every workload twice at tiny size: the ops
// all agree with the oracle (durability check included) and identical work
// leaves identical exact counters.
func TestSameSeedSameCounters(t *testing.T) {
	inRepoRoot(t)
	for _, w := range workloads {
		c := runConfig{w: w, seed: 3, seconds: 1, size: tinySize, ops: tinyOps}
		a, err := runGated(c)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := runGated(c)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !a.correct {
			t.Errorf("%s: %d of %d ops failed: %s", w.name, a.failed, a.attempted, a.firstFail)
		}
		if a.digest != b.digest || !reflect.DeepEqual(a.exact, b.exact) {
			t.Errorf("%s: same seed, different exact counters:\n%v\n%v", w.name, a.exact, b.exact)
		}
	}
}

// TestMetricNames checks the output against BENCHMARK.json: every declared
// metric is printed exactly once per workload with its declared unit, in
// the human-readable block and in the contract line, and nothing else is.
func TestMetricNames(t *testing.T) {
	inRepoRoot(t)
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q with why %q", i, spec.Workloads[i].Name, w.name, w.why)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(w *workload, kind string, res *result, decls []decl) {
		var out bytes.Buffer
		res.print(&out)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var contract struct {
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &contract); err != nil {
			t.Fatalf("%s %s: last line is not the contract object: %v", w.name, kind, err)
		}
		printed := map[string][]string{} // name -> units of the lines printing it
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) == 3 && !strings.HasPrefix(f[0], "#") {
				printed[f[0]] = append(printed[f[0]], f[2])
			}
		}
		if len(contract.Metrics) != len(decls) || len(printed) != len(decls) {
			t.Errorf("%s %s: %d metrics declared, %d printed, %d in the contract line", w.name, kind, len(decls), len(printed), len(contract.Metrics))
		}
		for _, d := range decls {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("BENCHMARK.json: malformed metric %+v", d)
			}
			if units := printed[d.Name]; len(units) != 1 || units[0] != d.Unit {
				t.Errorf("%s %s: %s (%s) printed with units %v", w.name, kind, d.Name, d.Unit, units)
			}
			if got, ok := contract.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("%s %s: contract line has %s as %+v, want unit %s", w.name, kind, d.Name, got, d.Unit)
			}
		}
	}
	for _, w := range workloads {
		c := runConfig{w: w, seed: 3, seconds: 1, size: tinySize, ops: tinyOps}
		gated, err := runGated(c)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		check(w, "untraced", gated, spec.EndToEnd)
		tracePath := filepath.Join(t.TempDir(), "trace.json")
		traced, err := runTraced(c, tracePath)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !traced.correct {
			t.Errorf("%s traced: %d of %d ops failed: %s", w.name, traced.failed, traced.attempted, traced.firstFail)
		}
		check(w, "traced", traced, spec.PerLayer)
		var spans []struct {
			Name   string
			Parent int
			OpID   int `json:"op_id"`
		}
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) != traced.samples {
			t.Errorf("%s traced: span file has %d spans (%v), the run recorded %d", w.name, len(spans), err, traced.samples)
		}
	}
}
