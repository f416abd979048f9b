package lint

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The whole test binary shares one Loader: the module is parsed and
// type-checked once and every corpus (plus the full-tree integration
// test) reuses that cache, mirroring the driver's load-once contract.
var (
	loaderOnce sync.Once
	sharedL    *Loader
	sharedErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { sharedL, sharedErr = NewLoader(".") })
	if sharedErr != nil {
		t.Fatalf("NewLoader: %v", sharedErr)
	}
	return sharedL
}

// The corpus under testdata/ annotates expected findings with marker
// comments: `// want <tok>...` expects findings on the marker's own line,
// `// want+N <tok>...` on the line N below. Each token is an analyzer
// code, or suppressed(<code>) for a finding a directive must mute. Every
// finding an analyzer raises on a corpus must be annotated — an
// unannotated one is a false positive and fails the test.

var wantRE = regexp.MustCompile(`// want(\+\d+)? (.+)$`)

type expect struct {
	line       int
	code       string
	suppressed bool
}

func loadCorpus(t *testing.T, sub string) *Package {
	t.Helper()
	l := testLoader(t)
	dir := filepath.Join("testdata", filepath.FromSlash(sub))
	p, err := l.LoadDirAs(dir, "testdata/"+sub)
	if err != nil {
		t.Fatalf("load corpus %s: %v", sub, err)
	}
	for _, e := range p.TypeErrors {
		t.Errorf("corpus %s: type error: %v", sub, e)
	}
	return p
}

// corpusWants collects the expectation markers of every file in p.
func corpusWants(p *Package) map[expect]int {
	wants := make(map[expect]int)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := p.Fset.Position(c.Pos()).Line
				if m[1] != "" {
					n, err := strconv.Atoi(m[1][1:])
					if err != nil {
						continue
					}
					line += n
				}
				for _, tok := range strings.Fields(m[2]) {
					e := expect{line: line, code: tok}
					if rest, ok := strings.CutPrefix(tok, "suppressed("); ok {
						e.code = strings.TrimSuffix(rest, ")")
						e.suppressed = true
					}
					wants[e]++
				}
			}
		}
	}
	return wants
}

// checkCorpus runs analyzers over one corpus package and matches the
// finding set exactly against the `// want` annotations.
func checkCorpus(t *testing.T, sub string, analyzers []*Analyzer) {
	t.Helper()
	p := loadCorpus(t, sub)
	wants := corpusWants(p)
	if len(wants) == 0 {
		t.Fatalf("corpus %s has no want annotations; the test would pass vacuously", sub)
	}
	got := make(map[expect]int)
	for _, f := range Run([]*Package{p}, analyzers) {
		got[expect{line: f.Pos.Line, code: f.Code, suppressed: f.Suppressed}]++
	}
	for e, n := range wants {
		if got[e] != n {
			t.Errorf("%s:%d: expected %d %s finding(s) (suppressed=%v), got %d",
				sub, e.line, n, e.code, e.suppressed, got[e])
		}
	}
	for e, n := range got {
		if wants[e] == 0 {
			t.Errorf("%s:%d: false positive: %d unexpected %s finding(s) (suppressed=%v)",
				sub, e.line, n, e.code, e.suppressed)
		}
	}
}

func TestVFSSeamCorpus(t *testing.T) { checkCorpus(t, "vfsseam/tool", []*Analyzer{VFSSeam}) }
func TestErrDropCorpus(t *testing.T) { checkCorpus(t, "errdrop/wal", []*Analyzer{ErrDrop}) }
func TestCtxLoopCorpus(t *testing.T) { checkCorpus(t, "ctxloop/bolt", []*Analyzer{CtxLoop}) }
func TestLockIOCorpus(t *testing.T)  { checkCorpus(t, "lockio/store", []*Analyzer{LockIO}) }

// atomicmix and flushorder each reproduce a previously-shipped bug shape
// (the group-commit mixed counter; the encode-then-append-without-Flush
// recovery bug, against the real wal, strstore and enc packages).
func TestAtomicMixCorpus(t *testing.T)  { checkCorpus(t, "atomicmix/store", []*Analyzer{AtomicMix}) }
func TestLockOrderCorpus(t *testing.T)  { checkCorpus(t, "lockorder/store", []*Analyzer{LockOrder}) }
func TestFlushOrderCorpus(t *testing.T) { checkCorpus(t, "flushorder/store", []*Analyzer{FlushOrder}) }

// Directive validation runs with no analyzers at all: malformed
// suppressions are findings in their own right.
func TestIgnoreDirectives(t *testing.T) { checkCorpus(t, "ignore", nil) }

// Stale-suppression detection only arms when the full suite runs: a
// directive that muted nothing is reported so dead escapes cannot
// accumulate.
func TestStaleSuppression(t *testing.T) { checkCorpus(t, "stale", All()) }

// The package gates must hold: the same corpus loaded under an import
// path with no watched segment produces nothing.
func TestPackageGates(t *testing.T) {
	l := testLoader(t)
	cases := []struct {
		dir string
		as  string
		az  *Analyzer
	}{
		{"errdrop/wal", "testdata/ungated/corpus1", ErrDrop},
		{"ctxloop/bolt", "testdata/ungated/corpus2", CtxLoop},
	}
	for _, c := range cases {
		p, err := l.LoadDirAs(filepath.Join("testdata", filepath.FromSlash(c.dir)), c.as)
		if err != nil {
			t.Fatalf("load %s: %v", c.dir, err)
		}
		var unsup int
		for _, f := range Run([]*Package{p}, []*Analyzer{c.az}) {
			if !f.Suppressed {
				unsup++
			}
		}
		if unsup != 0 {
			t.Errorf("%s: %s reported %d finding(s) on an unwatched import path; gate is broken", c.dir, c.az.Code, unsup)
		}
	}
	// vfsseam gates the other way: it is silent inside the vfs package.
	p, err := l.LoadDirAs(filepath.Join("testdata", "vfsseam", "tool"), "testdata/vfs/corpus")
	if err != nil {
		t.Fatalf("load vfsseam corpus: %v", err)
	}
	if fs := VFSSeam.Run(p); len(fs) != 0 {
		t.Errorf("vfsseam reported %d finding(s) inside a vfs package", len(fs))
	}
}

// A package that fails to parse must come back as an error naming the
// offending file position — never a panic, never a silent skip.
func TestLoadErrorPosition(t *testing.T) {
	_, err := testLoader(t).LoadDirAs(filepath.Join("testdata", "broken"), "testdata/broken")
	if err == nil {
		t.Fatal("loading testdata/broken succeeded; want a parse error")
	}
	if !strings.Contains(err.Error(), "broken.go") {
		t.Errorf("load error %q does not name the offending file", err)
	}
}

func TestByCode(t *testing.T) {
	all, err := ByCode("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByCode(\"\") = %d analyzers, err %v; expected full suite", len(all), err)
	}
	two, err := ByCode("lockio, errdrop")
	if err != nil || len(two) != 2 || two[0] != LockIO || two[1] != ErrDrop {
		t.Fatalf("ByCode(\"lockio, errdrop\") = %v, err %v", two, err)
	}
	if _, err := ByCode("nosuch"); err == nil {
		t.Fatal("ByCode(\"nosuch\") did not fail")
	}
}

// TestRepoClean is the integration test behind `make lint`: the real tree
// must type-check and carry no unsuppressed findings.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree lint is slow; skipped in -short mode")
	}
	pkgs, err := testLoader(t).Load([]string{"./internal/...", "./cmd/..."})
	if err != nil {
		t.Fatalf("load tree: %v", err)
	}
	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.ImportPath, te)
		}
	}
	for _, f := range Run(pkgs, All()) {
		if !f.Suppressed {
			t.Errorf("unsuppressed finding: %s", f)
		}
	}
}

// Run is RunTimed without the timings.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	fs, _ := RunTimed(pkgs, analyzers)
	return fs
}
