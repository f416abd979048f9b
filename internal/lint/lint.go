// Package lint is aionlint's analysis engine: a repo-specific static
// analyzer suite built on the standard library's go/parser, go/ast and
// go/types only (no golang.org/x/tools dependency). It mechanically
// enforces the cross-cutting invariants earlier PRs established by
// convention:
//
//   - vfsseam: every byte of store I/O flows through the fault-injectable
//     internal/vfs seam, so the FaultFS crash sweeps actually cover the
//     durability path. Direct os file-mutation calls outside internal/vfs
//     void that coverage silently.
//   - errdrop: fsync/Close/Flush/Append/Commit errors in the storage
//     packages are fail-stop, never dropped — not with `_ =`, not with a
//     bare deferred call.
//   - ctxloop: serving-path scan loops observe context cancellation; a
//     loop added without a (strided) ctx check holds a query's resources
//     long after the client gave up.
//   - lockio: fsync-class calls are not made while a mutex acquired in
//     the same function is held — disk I/O under a lock is how the
//     single-writer engine stalls readers.
//   - atomicmix: no sync/atomic function calls; every atomic is typed, so
//     plain access to it cannot compile.
//
// On top of those per-package rules sits a flow-aware layer (flow.go): an
// intra-module call graph and bottom-up effect summaries, shared by two
// whole-module analyzers:
//
//   - lockorder: the mutex acquisition graph across call edges is acyclic;
//     a cycle is a potential lock-order deadlock.
//   - flushorder: every path appending records that reference freshly
//     interned strings to a WAL is dominated by a string-table Flush — the
//     dangling-ref recovery bug class, generalized.
//
// Findings carry stable analyzer codes and can be suppressed, with a
// mandatory reason, by a comment on the offending line or the line above:
//
//	//aionlint:ignore <code> <reason>
//
// A suppression without a reason (or naming an unknown code) is itself a
// finding, so the escape hatch cannot erode into a blanket mute.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"time"
)

// A Finding is one rule violation at a position.
type Finding struct {
	Pos     token.Position
	Code    string // stable analyzer code ("vfsseam", "errdrop", ...)
	Message string
	// Suppressed findings were matched by an //aionlint:ignore directive;
	// they are reported only in verbose listings and do not fail the run.
	Suppressed     bool
	SuppressReason string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Code, f.Message)
}

// An Analyzer is one named rule. Per-package analyzers set Run, which
// inspects a single type-checked package; flow-aware analyzers set
// RunFlow, which sees the shared whole-module Flow layer (call graph,
// effect summaries) built once per lint run. Suppression
// handling and sorting are the driver's job (Run on a Suite).
type Analyzer struct {
	Code    string // stable short code used in findings and ignore directives
	Doc     string // one-line description for -list output
	Run     func(p *Package) []Finding
	RunFlow func(fl *Flow) []Finding
}

// All returns the full analyzer suite, sorted by code so listings and CI
// diffs are stable.
func All() []*Analyzer {
	return []*Analyzer{AtomicMix, CtxLoop, ErrDrop, FlushOrder, LockIO, LockOrder, VFSSeam}
}

// ByCode resolves a comma-separated code list against the full suite.
func ByCode(codes string) ([]*Analyzer, error) {
	if codes == "" {
		return All(), nil
	}
	byCode := make(map[string]*Analyzer)
	for _, a := range All() {
		byCode[a.Code] = a
	}
	var out []*Analyzer
	for _, c := range strings.Split(codes, ",") {
		c = strings.TrimSpace(c)
		a, ok := byCode[c]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", c)
		}
		out = append(out, a)
	}
	return out, nil
}

// A Timing is one analyzer's wall-clock cost in a run, for -v output.
type Timing struct {
	Code string
	Dur  time.Duration
}

// RunTimed applies the analyzers to every package, resolves suppression
// directives, and returns all findings (suppressed ones included, marked)
// sorted by position, with per-analyzer wall-clock timings. The module is
// type-checked once by the Loader and the flow layer is built once here;
// every analyzer shares both, so the timings measure pure analysis.
func RunTimed(pkgs []*Package, analyzers []*Analyzer) ([]Finding, []Timing) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Code] = true
	}

	// Collect suppression directives across every package up front: flow
	// analyzers report findings anywhere in the target set, so matching
	// cannot be per-package.
	var dirs directiveSet
	var out []Finding
	for _, p := range pkgs {
		ds, bad := directives(p, known)
		dirs = append(dirs, ds...)
		out = append(out, bad...)
	}

	// Build the shared flow layer once if any analyzer needs it.
	var fl *Flow
	for _, a := range analyzers {
		if a.RunFlow != nil {
			fl = NewFlow(pkgs)
			break
		}
	}

	matched := make(map[*directive]bool)
	var timings []Timing
	for _, a := range analyzers {
		start := time.Now()
		var fs []Finding
		if a.RunFlow != nil {
			fs = a.RunFlow(fl)
		} else {
			for _, p := range pkgs {
				fs = append(fs, a.Run(p)...)
			}
		}
		for _, f := range fs {
			if d := dirs.match(f); d != nil {
				f.Suppressed = true
				f.SuppressReason = d.reason
				matched[d] = true
			}
			out = append(out, f)
		}
		timings = append(timings, Timing{Code: a.Code, Dur: time.Since(start)})
	}

	// When the full suite ran, a directive that suppressed nothing is
	// stale: the finding it once muted is gone (or its analyzer changed),
	// and a dead escape hatch only invites drift. Partial runs skip this —
	// a vfsseam directive is legitimately idle under -analyzers lockio.
	if coversAll(analyzers) {
		for i := range dirs {
			d := &dirs[i]
			if !matched[d] {
				out = append(out, Finding{
					Pos:     token.Position{Filename: d.file, Line: d.line},
					Code:    "ignore",
					Message: fmt.Sprintf("suppression of %s matches no finding; the directive is stale — remove it", d.code),
				})
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Code < b.Code
	})
	return out, timings
}

// coversAll reports whether the analyzer set is the complete suite.
func coversAll(analyzers []*Analyzer) bool {
	have := make(map[string]bool)
	for _, a := range analyzers {
		have[a.Code] = true
	}
	for _, a := range All() {
		if !have[a.Code] {
			return false
		}
	}
	return true
}

// Unsuppressed counts the findings that should fail a lint run.
func Unsuppressed(fs []Finding) int {
	n := 0
	for _, f := range fs {
		if !f.Suppressed {
			n++
		}
	}
	return n
}

// --- suppression directives -------------------------------------------------

// ignoreRE matches a directive comment. Like Go's own directives it must
// start the comment exactly ("//aionlint:ignore ..."): prose that merely
// mentions the syntax, as this comment does, is not a directive.
var ignoreRE = regexp.MustCompile(`^//aionlint:ignore(?:\s+(\S+))?(?:\s+(.*\S))?\s*$`)

type directive struct {
	file   string
	line   int // line the comment ends on; covers this line and the next
	code   string
	reason string
}

type directiveSet []directive

// match returns the directive suppressing f, or nil. A directive covers
// findings of its code on its own line (trailing comment) and on the line
// directly below (standalone comment above the statement).
func (ds directiveSet) match(f Finding) *directive {
	for i := range ds {
		d := &ds[i]
		if d.file != f.Pos.Filename || d.code != f.Code {
			continue
		}
		if f.Pos.Line == d.line || f.Pos.Line == d.line+1 {
			return d
		}
	}
	return nil
}

// directives collects every //aionlint:ignore comment in the package.
// Malformed directives — no code, unknown code, or a missing reason — are
// returned as findings so they cannot silently mute anything.
func directives(p *Package, known map[string]bool) (directiveSet, []Finding) {
	var ds directiveSet
	var bad []Finding
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//aionlint:ignore") {
					continue
				}
				pos := p.Fset.Position(c.End())
				m := ignoreRE.FindStringSubmatch(c.Text)
				code, reason := "", ""
				if m != nil {
					code, reason = m[1], m[2]
				}
				switch {
				case code == "" || !known[code]:
					bad = append(bad, Finding{
						Pos:     p.Fset.Position(c.Pos()),
						Code:    "ignore",
						Message: fmt.Sprintf("malformed suppression %q: want //aionlint:ignore <code> <reason> with a known analyzer code", strings.TrimSpace(c.Text)),
					})
				case reason == "":
					bad = append(bad, Finding{
						Pos:     p.Fset.Position(c.Pos()),
						Code:    "ignore",
						Message: fmt.Sprintf("suppression of %s has no reason; say why the invariant does not apply here", code),
					})
				default:
					ds = append(ds, directive{file: pos.Filename, line: pos.Line, code: code, reason: reason})
				}
			}
		}
	}
	return ds, bad
}

// --- shared helpers ---------------------------------------------------------

// hasSegment reports whether the package's import path contains seg as a
// whole path element ("aion/internal/wal" has "wal" but not "al"). Gating
// by segment keeps the analyzers testable against testdata corpora whose
// synthetic import paths end in the same element.
func (p *Package) hasSegment(seg string) bool {
	for _, s := range strings.Split(p.ImportPath, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

func (p *Package) hasAnySegment(segs ...string) bool {
	for _, s := range segs {
		if p.hasSegment(s) {
			return true
		}
	}
	return false
}

// exprString renders a (small) expression for messages: "s.mu", "f".
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	default:
		return "expr"
	}
}
