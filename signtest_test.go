package aion_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSignTest runs scripts/signtest.awk on ten pairs of a fixture in
// benchmark-ab.sh's ungated.txt format: a latency the change lowers in every
// pair, a throughput it raises in five pairs and lowers in five, and a
// latency with one tie among nine wins. Ten wins of ten give p = 2/1024 and
// an interval d(2)..d(9) that excludes zero; five of ten give p = 1 and an
// interval that spans zero; the tie is dropped from the count, not from the
// interval.
func TestSignTest(t *testing.T) {
	var fixture strings.Builder
	for i := 1; i <= 10; i++ {
		f := float64(i)
		ops := 400.0
		if i%2 == 0 {
			ops = -500
		}
		tie := 3.0
		if i == 4 {
			tie = 0
		}
		for _, l := range []struct {
			w, m           string
			parent, change float64
		}{
			{"mixed-serve", "lat_p50_us", 36 + f/10, 28 + f/5},
			{"mixed-serve", "ops_per_s", 15000 + 100*f, 15000 + 100*f + ops},
			{"point-history", "lat_p50_us", 50 + f, 50 + f - tie},
		} {
			fmt.Fprintf(&fixture, "parent %d %s %s %g\nchange %d %s %s %g\n", i, l.w, l.m, l.parent, i, l.w, l.m, l.change)
		}
	}
	in := filepath.Join(t.TempDir(), "ungated.txt")
	if err := os.WriteFile(in, []byte(fixture.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("awk", "-f", "scripts/signtest.awk", in).CombinedOutput()
	if err != nil {
		t.Fatalf("signtest.awk: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "reported, not gated") {
		t.Errorf("output is not labelled reported, not gated:\n%s", out)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) == 9 && f[2] == "10" {
			rows[f[0]+" "+f[1]] = f
		}
	}
	num := func(s string) float64 {
		x, err := strconv.ParseFloat(strings.Trim(s, "[],%"), 64)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		return x
	}
	for _, c := range []struct {
		key, wl      string
		p, lo, hi    float64
		excludesZero bool
	}{
		{"mixed-serve lat_p50_us", "10/0", 0.002, -7.8, -7.1, true},
		{"mixed-serve ops_per_s", "5/5", 1, -500, 400, false},
		{"point-history lat_p50_us", "9/0", 0.0039, -3, -3, true},
	} {
		f, ok := rows[c.key]
		if !ok {
			t.Errorf("%s: no row in\n%s", c.key, out)
			continue
		}
		lo, hi := num(f[6]), num(f[7])
		if f[3] != c.wl || num(f[4]) != c.p || lo != c.lo || hi != c.hi || num(f[8]) != 97.9 {
			t.Errorf("%s: %v, want %s, p %g, interval [%g, %g] at 97.9%%", c.key, f, c.wl, c.p, c.lo, c.hi)
		}
		if excludes := lo > 0 || hi < 0; excludes != c.excludesZero {
			t.Errorf("%s: interval [%g, %g] excludes zero: %v, want %v", c.key, lo, hi, excludes, c.excludesZero)
		}
	}
}
