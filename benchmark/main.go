// Command benchmark is the repository's fixed-work, single-client benchmark:
// four workloads that each isolate one side of Aion (LineageStore reads,
// TimeStore snapshots, the write path, and the served mix over
// bolt), seven end-to-end metrics per workload from an untraced run, and a
// traced run that replays the same scripts boundary by boundary for the
// per-layer numbers. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process; empty runs all four, each in a fresh child process")
		seed    = flag.Int64("seed", 1, "seed of the dataset and the scripts")
		seconds = flag.Int("seconds", defaultSeconds, "work to execute, in seconds of the seed commit's speed (fixed work, not fixed time)")
		trace   = flag.String("trace", "0", `"0": untraced run, end-to-end metrics; "1" or a file path: traced run, per-layer metrics, spans written to the path (default `+defaultTracePath+`)`)
		aa      = flag.Int("aa", 0, "run this many full untraced sets and compare them against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *aa > 0:
		err = runAA(*aa, *seed, *seconds)
	case *name == "":
		_, err = runAll(os.Stdout, *seed, *seconds, *trace)
	default:
		err = runOne(*name, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

const (
	defaultSeconds   = 20
	defaultTracePath = scratchRoot + "/trace.json"
)

// runOne runs one workload in this process and prints its result; the last
// line of standard output is the contract's JSON object.
func runOne(name string, seed int64, seconds int, trace string) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	c := runConfig{w: w, seed: seed, seconds: seconds, size: fullSize}
	var res *result
	var err error
	if trace == "0" {
		res, err = runGated(c)
	} else {
		path := trace
		if path == "1" {
			path = defaultTracePath
		}
		res, err = runTraced(c, path)
	}
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if !res.correct {
		return fmt.Errorf("%s: %d of %d ops failed or disagreed with the oracle; first: %s", name, res.failed, res.attempted, res.firstFail)
	}
	return nil
}

// print writes the human-readable block and then the contract line.
func (r *result) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s  GOMAXPROCS=%d nproc=%d GOGC=%s script_digest=%016x samples=%d\n",
		r.workload, runtime.GOMAXPROCS(0), runtime.NumCPU(), gogc(), r.digest, r.samples)
	for _, n := range r.notes {
		fmt.Fprintf(out, "  # %s\n", n)
	}
	if len(r.exact) > 0 {
		fmt.Fprint(out, "  "+exactPrefix)
		for _, e := range r.exact {
			fmt.Fprintf(out, " %s=%d", e.name, e.value)
		}
		fmt.Fprintln(out)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(out, "  %-44s %16.6f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintln(out, r.contractLine())
}

const exactPrefix = "# exact:"

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

// contractLine is the single JSON object the driver reads.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]mv{}}
	for _, m := range r.metrics {
		line.Metrics[m.name] = mv{m.value, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only a NaN or Inf metric can do this: a bug in the benchmark
	}
	return string(b)
}

// setResult is what runAll collects per workload from the child's output.
type setResult map[string]workloadResult

type workloadResult struct {
	metrics map[string]float64
	exact   string // the "# exact:" line: counters identical work must repeat
}

// runAll runs every workload in a fresh child process of this binary, so no
// workload inherits another's heap, page cache state or goroutines.
func runAll(out io.Writer, seed int64, seconds int, trace string) (setResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := setResult{}
	var failed []string
	for _, w := range workloads {
		childTrace := trace
		if trace != "0" { // one span file per workload: trace.json -> trace.point-history.json
			path := trace
			if path == "1" {
				path = defaultTracePath
			}
			ext := filepath.Ext(path)
			childTrace = strings.TrimSuffix(path, ext) + "." + w.name + ext
		}
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", childTrace)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output() // waits for the child to exit
		if _, werr := out.Write(stdout); werr != nil {
			return nil, werr
		}
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s (%v)", w.name, err))
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var line struct {
			Metrics map[string]struct{ Value float64 } `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			return nil, fmt.Errorf("%s: unreadable result line: %w", w.name, err)
		}
		wr := workloadResult{metrics: map[string]float64{}}
		for k, v := range line.Metrics {
			wr.metrics[k] = v.Value
		}
		for _, l := range lines {
			if strings.Contains(l, exactPrefix) {
				wr.exact = strings.TrimSpace(l)
			}
		}
		set[w.name] = wr
	}
	if len(failed) > 0 {
		return set, fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return set, nil
}
