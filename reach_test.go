package aion_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"aion/internal/lint"
)

// Production is what a binary reaches. TestEveryFunctionIsReached walks the
// call graph from every main — the commands, the examples and the frozen
// benchmark — and fails on any function or method under internal/ or cmd/
// that none of them reaches. Code only tests need lives under
// internal/testkit/, which no binary may import.
//
// The walk is over go/types, on internal/lint's stdlib-only Loader, which
// reads no _test.go file. Roots are each main's main, every init and every
// package-level initialiser of a package some main imports. A reached body
// reaches every function or method it names, called or not (a method value
// counts). A method also counts as reached when
//   - a reached interface method of the same name could dispatch to it: its
//     type, or a pointer to it, implements that method's interface;
//   - it implements a standard-library interface the library calls for it
//     (stdlibCallers);
//   - it is an unexported, empty, argument-less marker method that an
//     interface of its own package names: a sealed interface's marker.

// reachAllowed names the functions a binary need not reach, each with the
// reason it stays. An entry that a binary does reach fails the test, so the
// list cannot outlive its reasons.
var reachAllowed = map[string]string{
	"(*hostdb.Tx).SetNodeLabels": "the host's label edit (Neo4j's addLabel and removeLabel); no Cypher clause edits labels yet, and the system and Cypher oracle tests write label histories through it",
	"(model.Properties).Equal":   "the property map's equality; memgraph's records compare sorted property slices instead, and the tests and the reference model compare maps with it",
}

// reachAllowedMax bounds reachAllowed: the list is for exceptions, not for
// code that should be deleted or moved under internal/testkit/.
const reachAllowedMax = 10

// stdlibCallers are the standard-library interfaces whose methods the
// library itself calls on the program's values: fmt formats a Stringer or an
// error, io moves bytes through the io interfaces, go/types imports through
// an Importer, sort and container/heap order through their Interface. errors
// unwraps through an unnamed interface, which reachProblems adds.
var stdlibCallers = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"io", "Closer"},
	{"io", "ReaderAt"},
	{"io", "WriterAt"},
	{"io", "Seeker"},
	{"io", "ByteReader"},
	{"io", "ByteWriter"},
	{"io", "StringWriter"},
	{"io", "ReaderFrom"},
	{"io", "WriterTo"},
	{"go/types", "Importer"},
	{"go/types", "ImporterFrom"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
}

var (
	reachOnce   sync.Once
	reachLoader *lint.Loader
	reachErr    error
)

// reachLoad parses and type-checks the module once per test binary.
func reachLoad(t *testing.T) *lint.Loader {
	t.Helper()
	reachOnce.Do(func() {
		reachLoader, reachErr = lint.NewLoader(".")
		if reachErr == nil {
			_, reachErr = reachLoader.Load([]string{"./..."})
		}
	})
	if reachErr != nil {
		t.Fatalf("load module: %v", reachErr)
	}
	return reachLoader
}

func TestEveryFunctionIsReached(t *testing.T) {
	l := reachLoad(t)
	var mains []*lint.Package
	for _, p := range l.Loaded() {
		if p.Pkg.Name() == "main" && !strings.Contains(p.ImportPath, "/testdata/") {
			mains = append(mains, p)
		}
	}
	if len(mains) < 3 {
		t.Fatalf("found %d main packages; the walk needs cmd/*, examples/* and benchmark/", len(mains))
	}
	for _, p := range reachProblems(l, mains, production, reachAllowed) {
		t.Error(p)
	}
}

// production reports whether the package at path is production code: under
// internal/ or cmd/, and not test support under internal/testkit/.
func production(path string) bool {
	return (strings.HasPrefix(path, "aion/internal/") || strings.HasPrefix(path, "aion/cmd/")) &&
		!strings.HasPrefix(path, "aion/internal/testkit/")
}

// TestReachabilityFixtures holds the walk's rules to small programs under
// testdata/reach/: each fixture is one main package, its own scope.
func TestReachabilityFixtures(t *testing.T) {
	l := reachLoad(t)
	for _, tc := range []struct {
		fixture string
		allow   map[string]string
		want    []string // substrings of the expected problems, in order
	}{
		{fixture: "unreached", want: []string{"unreached.dead: no binary reaches it"}},
		{fixture: "dispatch"},
		{fixture: "stdlib"},
		{fixture: "sealed"},
		{fixture: "dispatch", allow: map[string]string{"(*dispatch.disk).Name": "a stale reason"},
			want: []string{"(*dispatch.disk).Name: allowed (a stale reason), but a binary reaches it"}},
		{fixture: "testkit", want: []string{"imports aion/internal/testkit/"}},
	} {
		path := "aion/testdata/reach/" + tc.fixture
		p, err := l.LoadDirAs(filepath.Join("testdata", "reach", tc.fixture), path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range p.TypeErrors {
			t.Fatalf("%s: %v", tc.fixture, e)
		}
		got := reachProblems(l, []*lint.Package{p}, func(q string) bool { return q == path }, tc.allow)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d problems, want %d: %q", tc.fixture, len(got), len(tc.want), got)
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: problem %q, want it to contain %q", tc.fixture, got[i], w)
			}
		}
	}
}

// reachDecl is one declared function or method with its package.
type reachDecl struct {
	pkg  *lint.Package
	decl *ast.FuncDecl
}

type reachWalk struct {
	decls    map[*types.Func]reachDecl
	methods  map[string][]*types.Func // concrete methods, by name
	reached  map[*types.Func]bool
	dispatch map[*types.Func]bool // interface methods already dispatched
	queue    []*types.Func
}

// reachProblems walks every function the mains reach through the loaded
// packages, and reports each in-scope function none reaches, each stale or
// surplus allow-list entry, and each main that imports internal/testkit/.
func reachProblems(l *lint.Loader, mains []*lint.Package, inScope func(string) bool, allow map[string]string) []string {
	var problems []string
	pkgs := l.Loaded()
	w := &reachWalk{
		decls:    make(map[*types.Func]reachDecl),
		methods:  make(map[string][]*types.Func),
		reached:  make(map[*types.Func]bool),
		dispatch: make(map[*types.Func]bool),
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				w.decls[fn] = reachDecl{p, fd}
				if fd.Recv != nil {
					w.methods[fn.Name()] = append(w.methods[fn.Name()], fn)
				}
			}
		}
	}

	// Roots: each main, and the initialisers of every package a main imports.
	byPath := make(map[string]*lint.Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	imported := make(map[string]*types.Package) // by path, over every main
	for _, m := range mains {
		own := make(map[string]*types.Package)
		importClosure(m.Pkg, own)
		for path, tp := range own {
			imported[path] = tp
			if strings.HasPrefix(path, "aion/internal/testkit/") {
				problems = append(problems, fmt.Sprintf("%s imports %s: no binary may import internal/testkit/", m.ImportPath, path))
			}
		}
		if fn, ok := m.Pkg.Scope().Lookup("main").(*types.Func); ok {
			w.reach(fn)
		}
	}
	for path := range imported {
		p := byPath[path]
		if p == nil {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if fn, ok := p.Info.Defs[d.Name].(*types.Func); ok && d.Recv == nil && d.Name.Name == "init" {
						w.reach(fn)
					}
				case *ast.GenDecl:
					w.walk(p, d)
				}
			}
		}
	}
	for _, ref := range stdlibCallers {
		obj := types.Universe.Lookup(ref.name)
		if ref.pkg != "" {
			obj = nil
			if tp := imported[ref.pkg]; tp != nil {
				obj = tp.Scope().Lookup(ref.name)
			}
		}
		if obj == nil {
			continue
		}
		iface := obj.Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			w.dispatchTo(iface.Method(i))
		}
	}
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	w.dispatchTo(types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete().Method(0))
	w.drain()
	sort.Strings(problems)

	// Findings, in a stable order.
	var names []string
	unreached := make(map[string]reachDecl)
	reachedName := make(map[string]bool)
	for fn, d := range w.decls {
		if fn.Pkg() == nil || !inScope(fn.Pkg().Path()) {
			continue
		}
		name := reachName(fn)
		if w.reached[fn] || sealedMarker(d) {
			reachedName[name] = true
			continue
		}
		unreached[name] = d
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := allow[name]; ok {
			continue
		}
		d := unreached[name]
		pos := d.pkg.Fset.Position(d.decl.Pos())
		lines := d.pkg.Fset.Position(d.decl.End()).Line - pos.Line + 1
		problems = append(problems, fmt.Sprintf("%s: no binary reaches it (%s:%d, %d lines); delete it, give it a caller, move it under internal/testkit/ or allow-list it with a reason",
			name, filepath.Base(pos.Filename), pos.Line, lines))
	}
	var allowed []string
	for name := range allow {
		allowed = append(allowed, name)
	}
	sort.Strings(allowed)
	for _, name := range allowed {
		switch {
		case reachedName[name]:
			problems = append(problems, fmt.Sprintf("%s: allowed (%s), but a binary reaches it; drop the entry", name, allow[name]))
		case unreached[name].decl == nil:
			problems = append(problems, fmt.Sprintf("%s: allowed (%s), but no such function exists; drop the entry", name, allow[name]))
		case allow[name] == "":
			problems = append(problems, fmt.Sprintf("%s: allowed without a reason", name))
		}
	}
	if len(allow) > reachAllowedMax {
		problems = append(problems, fmt.Sprintf("%d allow-listed functions, over the cap of %d", len(allow), reachAllowedMax))
	}
	return problems
}

// reach marks fn reached and queues its body.
func (w *reachWalk) reach(fn *types.Func) {
	fn = fn.Origin()
	if w.reached[fn] {
		return
	}
	w.reached[fn] = true
	w.queue = append(w.queue, fn)
}

// drain walks the body of every queued function until none is left.
func (w *reachWalk) drain() {
	for len(w.queue) > 0 {
		fn := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		if d, ok := w.decls[fn]; ok && d.decl.Body != nil {
			w.walk(d.pkg, d.decl.Body)
		}
	}
}

// walk reaches every function n names; a name that resolves to an interface
// method reaches every concrete method it could dispatch to.
func (w *reachWalk) walk(p *lint.Package, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := p.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if isInterfaceMethod(fn) {
			w.dispatchTo(fn)
		} else {
			w.reach(fn)
		}
		return true
	})
}

// dispatchTo reaches every concrete method that a call of the interface
// method m could run.
func (w *reachWalk) dispatchTo(m *types.Func) {
	m = m.Origin()
	if w.dispatch[m] {
		return
	}
	w.dispatch[m] = true
	recv := m.Type().(*types.Signature).Recv().Type()
	iface, _ := recv.Underlying().(*types.Interface)
	if named, ok := recv.(*types.Named); ok && named.TypeParams().Len() > 0 {
		iface = nil // a generic interface's methods are matched by name
	}
	for _, c := range w.methods[m.Name()] {
		if iface == nil || implements(c, iface) {
			w.reach(c)
		}
	}
}

// implements reports whether the receiver type of the concrete method c, or
// a pointer to it, implements iface. A generic receiver matches by name.
func implements(c *types.Func, iface *types.Interface) bool {
	recv := c.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return true
	}
	return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// sealedMarker reports whether d is an unexported method with no
// parameters, results or statements that an interface declared in its own
// package names: the marker that seals that interface.
func sealedMarker(d reachDecl) bool {
	fd := d.decl
	if fd.Recv == nil || ast.IsExported(fd.Name.Name) || fd.Body == nil || len(fd.Body.List) > 0 ||
		fd.Type.Params.NumFields() > 0 || fd.Type.Results.NumFields() > 0 {
		return false
	}
	scope := d.pkg.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				if iface.Method(i).Name() == fd.Name.Name {
					return true
				}
			}
		}
	}
	return false
}

// reachName renders fn without the module's directories:
// "timestore.Append", "(*timestore.Store).GetDiff", "cmd/aion-shell.main".
func reachName(fn *types.Func) string {
	name := fn.FullName()
	name = strings.ReplaceAll(name, "aion/internal/", "")
	name = strings.ReplaceAll(name, "aion/testdata/reach/", "")
	return strings.ReplaceAll(name, "aion/", "")
}
func importClosure(tp *types.Package, seen map[string]*types.Package) {
	if seen[tp.Path()] != nil {
		return
	}
	seen[tp.Path()] = tp
	for _, dep := range tp.Imports() {
		importClosure(dep, seen)
	}
}
