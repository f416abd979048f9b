package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	// TypeErrors collects soft type-check failures. Analyzers degrade to
	// AST-level heuristics where type information is missing, but the
	// driver surfaces these so a broken load cannot masquerade as a clean
	// lint run.
	TypeErrors []error

	// loader is the Loader that produced this package; the flow layer uses
	// it to reach every other module-internal package the load pulled in.
	loader *Loader
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports are type-checked from source
// recursively, and everything else (the standard library) goes through
// go/importer's source importer. This keeps aionlint honest about the
// repo's no-third-party-deps constraint — the analyzer suite can never
// quietly grow an x/tools dependency.
type Loader struct {
	Fset    *token.FileSet
	ModPath string // module path from go.mod ("aion")
	ModRoot string // absolute directory containing go.mod

	std      types.ImporterFrom
	loaded   map[string]*Package // by import path
	checking map[string]bool     // in-flight loads, for cycle detection
}

// NewLoader builds a loader rooted at the directory containing go.mod.
// root may be the module root itself or any directory below it.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modRoot, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:     fset,
		ModPath:  modPath,
		ModRoot:  modRoot,
		std:      std,
		loaded:   make(map[string]*Package),
		checking: make(map[string]bool),
	}, nil
}

// findModule walks upward from dir to the nearest go.mod and parses its
// module path (first "module" line; the stanza go.mod grammar puts first).
func findModule(dir string) (modRoot, modPath string, err error) {
	for d := dir; ; {
		b, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(b), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		d = parent
	}
}

// Expand resolves Go-style package patterns ("./internal/...", "./cmd")
// relative to the module root into directories that contain at least one
// non-test .go file. testdata directories and dot/underscore-prefixed
// directories are skipped, as the go tool does.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		base := filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: expand %s: %w", pat, err)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Load loads every package under the given patterns.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirs, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadDir loads the package in dir under its natural in-module import
// path.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil {
		return nil, err
	}
	ip := l.ModPath
	if rel != "." {
		ip = l.ModPath + "/" + filepath.ToSlash(rel)
	}
	return l.LoadDirAs(dir, ip)
}

// LoadDirAs loads the package in dir under an explicit import path. The
// testdata corpus uses this to give fixture packages paths whose segments
// trip the same package gates as the real tree ("testdata/errdrop/wal").
func (l *Loader) LoadDirAs(dir, importPath string) (*Package, error) {
	if p, ok := l.loaded[importPath]; ok {
		return p, nil
	}
	if l.checking[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.checking[importPath] = true
	defer delete(l.checking, importPath)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	p := &Package{ImportPath: importPath, Dir: dir, Fset: l.Fset, loader: l}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok { // build constraints, as go build applies them
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		p.Files = append(p.Files, f)
	}
	if len(p.Files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}

	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error: func(err error) {
			p.TypeErrors = append(p.TypeErrors, err)
		},
	}
	// The hard error is intentionally dropped: conf.Error collected every
	// individual problem, and analyzers run on whatever type information
	// survived. The driver decides whether TypeErrors are fatal.
	p.Pkg, _ = conf.Check(importPath, l.Fset, p.Files, p.Info)
	l.loaded[importPath] = p
	return p, nil
}

// Loaded returns every package this loader has parsed and type-checked —
// the requested ones plus their transitively imported module-internal
// dependencies — sorted by import path.
func (l *Loader) Loaded() []*Package {
	out := make([]*Package, 0, len(l.loaded))
	for _, p := range l.loaded {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out
}

// loaderImporter routes module-internal imports back through the Loader
// and everything else to the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		sub := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		p, err := l.LoadDir(filepath.Join(l.ModRoot, filepath.FromSlash(sub)))
		if err != nil {
			return nil, err
		}
		if p.Pkg == nil {
			return nil, fmt.Errorf("lint: %s failed to type-check", path)
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}
