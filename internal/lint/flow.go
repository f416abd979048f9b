package lint

// This file is aionlint's flow-aware layer: a whole-module view computed
// once and shared by the analyzers that need to see across function and
// package boundaries (lockorder, flushorder). It has two parts:
//
//   - a call graph over go/types: static calls, method calls, interface
//     method calls resolved to every intra-module type that satisfies the
//     interface, and local function values resolved to the functions
//     assigned to them;
//   - per-function effect summaries — locks acquired and string-table
//     dirtiness transfer — computed bottom-up over the call graph's SCC
//     condensation.
//
// The layer is stdlib-only, like the rest of the engine: it works off the
// Loader's type-checked packages, so building it costs no extra parsing
// or type-checking beyond the one load the driver already does.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A FlowCall is one resolved call site inside a function body.
type FlowCall struct {
	Site    *ast.CallExpr
	Pos     token.Pos
	Targets []*types.Func // intra-module targets with bodies; nil if unresolved
	// Spawned marks calls that run on a different goroutine than the
	// enclosing function: `go f()` itself and every call inside a
	// goroutine func literal. Spawned calls do not contribute to the
	// caller's lock or flush ordering.
	Spawned bool
}

// A FuncInfo is one declared function or method with a body.
type FuncInfo struct {
	Obj   *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Calls []FlowCall // in source order
}

// Name renders the function for messages: "pkg.F" or "pkg.T.M".
func (fi *FuncInfo) Name() string {
	name := fi.Obj.Name()
	if recv := receiverTypeName(fi.Obj); recv != "" {
		name = recv + "." + name
	}
	if fi.Obj.Pkg() != nil {
		name = lastSegment(fi.Obj.Pkg().Path()) + "." + name
	}
	return name
}

// An Effect is a function's bottom-up summary over the call graph.
type Effect struct {
	// Locks is the set of lock IDs (see mutexID) the function may acquire
	// during a call, directly or transitively, excluding spawned
	// goroutines.
	Locks map[string]bool
	// StrTransfer is the function's transfer on the "freshly interned
	// strings not yet flushed" abstract state: foID leaves it unchanged,
	// foGen dirties it, foKill cleans it (a Flush/Sync after the last
	// intern).
	StrTransfer int
	// AppendsUnflushed reports whether the function can reach a WAL
	// append with no string-table flush since entry — the PR 6 dangling
	// ref shape when a caller enters with unflushed interned strings.
	AppendsUnflushed bool
}

const (
	foID = iota
	foGen
	foKill
)

// Flow is the shared whole-module layer.
type Flow struct {
	// Targets are the packages findings may be reported in (the set the
	// driver was asked to lint). All is Targets plus every module-internal
	// package they transitively pulled in, so call edges and effects see
	// the full picture even when only a corpus package is under test.
	Targets []*Package
	All     []*Package

	Funcs   map[*types.Func]*FuncInfo
	effects map[*types.Func]*Effect

	targetSet  map[*Package]bool
	namedTypes []*types.TypeName // every named type in All, for interface dispatch
	ifaceCache map[string][]*types.Func
}

// NewFlow builds the layer for the given target packages, pulling in every
// other package their loaders have already type-checked.
func NewFlow(targets []*Package) *Flow {
	fl := &Flow{
		Targets:    targets,
		Funcs:      make(map[*types.Func]*FuncInfo),
		effects:    make(map[*types.Func]*Effect),
		targetSet:  make(map[*Package]bool),
		ifaceCache: make(map[string][]*types.Func),
	}
	seenLoader := make(map[*Loader]bool)
	seenPkg := make(map[*Package]bool)
	for _, p := range targets {
		fl.targetSet[p] = true
		if !seenPkg[p] {
			seenPkg[p] = true
			fl.All = append(fl.All, p)
		}
		if p.loader != nil && !seenLoader[p.loader] {
			seenLoader[p.loader] = true
			for _, lp := range p.loader.Loaded() {
				if !seenPkg[lp] {
					seenPkg[lp] = true
					fl.All = append(fl.All, lp)
				}
			}
		}
	}
	sort.Slice(fl.All, func(i, j int) bool { return fl.All[i].ImportPath < fl.All[j].ImportPath })

	fl.indexTypes()
	fl.indexFuncs()
	for _, fi := range fl.Funcs {
		fl.resolveCalls(fi)
	}
	fl.computeEffects()
	return fl
}

// InTarget reports whether findings in p should be emitted.
func (fl *Flow) InTarget(p *Package) bool { return fl.targetSet[p] }

// --- indexing ---------------------------------------------------------------

func (fl *Flow) indexTypes() {
	for _, p := range fl.All {
		if p.Pkg == nil {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				fl.namedTypes = append(fl.namedTypes, tn)
			}
		}
	}
	sort.Slice(fl.namedTypes, func(i, j int) bool {
		a, b := fl.namedTypes[i], fl.namedTypes[j]
		if a.Pkg().Path() != b.Pkg().Path() {
			return a.Pkg().Path() < b.Pkg().Path()
		}
		return a.Name() < b.Name()
	})
}

func (fl *Flow) indexFuncs() {
	for _, p := range fl.All {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok || obj == nil {
					continue
				}
				fl.Funcs[obj.Origin()] = &FuncInfo{Obj: obj.Origin(), Decl: fd, Pkg: p}
			}
		}
	}
}

// resolveCalls walks fi's body recording every call site with its resolved
// intra-module targets, in source order.
func (fl *Flow) resolveCalls(fi *FuncInfo) {
	p := fi.Pkg
	fnvals := localFuncValues(p, fi.Decl.Body)
	var walk func(n ast.Node, spawned bool)
	record := func(call *ast.CallExpr, spawned bool) {
		fi.Calls = append(fi.Calls, FlowCall{
			Site:    call,
			Pos:     call.Pos(),
			Targets: fl.resolveTargets(p, call, fnvals),
			Spawned: spawned,
		})
	}
	walk = func(n ast.Node, spawned bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.GoStmt:
				record(m.Call, true)
				for _, arg := range m.Call.Args {
					walk(arg, spawned) // args evaluate on the caller's goroutine
				}
				if lit, ok := m.Call.Fun.(*ast.FuncLit); ok {
					walk(lit.Body, true)
				}
				return false
			case *ast.DeferStmt:
				record(m.Call, spawned)
				for _, arg := range m.Call.Args {
					walk(arg, spawned)
				}
				if lit, ok := m.Call.Fun.(*ast.FuncLit); ok {
					walk(lit.Body, spawned)
				}
				return false
			case *ast.CallExpr:
				record(m, spawned)
				return true
			}
			return true
		})
	}
	walk(fi.Decl.Body, false)
}

// localFuncValues maps local variables to the module functions assigned to
// them anywhere in body, so calls through function values resolve.
func localFuncValues(p *Package, body *ast.BlockStmt) map[types.Object][]*types.Func {
	vals := make(map[types.Object][]*types.Func)
	add := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if fn := staticFunc(p, rhs); fn != nil {
			vals[obj] = append(vals[obj], fn)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					add(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					add(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return vals
}

// staticFunc resolves an expression that names a function (identifier,
// package-qualified name, or method expression) to its object.
func staticFunc(p *Package, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[e].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[e.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.ParenExpr:
		return staticFunc(p, e.X)
	}
	return nil
}

// resolveTargets resolves one call expression to its intra-module targets.
func (fl *Flow) resolveTargets(p *Package, call *ast.CallExpr, fnvals map[types.Object][]*types.Func) []*types.Func {
	fun := call.Fun
	for {
		if pe, ok := fun.(*ast.ParenExpr); ok {
			fun = pe.X
			continue
		}
		break
	}
	var cands []*types.Func
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := p.Info.Uses[fun].(type) {
		case *types.Func:
			cands = []*types.Func{obj.Origin()}
		case *types.Var:
			cands = fnvals[obj]
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				cands = fl.interfaceTargets(iface, sel.Obj().Name())
			} else if fn, ok := sel.Obj().(*types.Func); ok {
				cands = []*types.Func{fn.Origin()}
			}
		} else if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			cands = []*types.Func{fn.Origin()}
		} else if v, ok := p.Info.Uses[fun.Sel].(*types.Var); ok {
			cands = fnvals[v]
		}
	}
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	for _, fn := range cands {
		if fn == nil || seen[fn] {
			continue
		}
		seen[fn] = true
		if _, ok := fl.Funcs[fn]; ok {
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// interfaceTargets resolves an interface method call to the corresponding
// concrete method of every intra-module named type satisfying the
// interface.
func (fl *Flow) interfaceTargets(iface *types.Interface, method string) []*types.Func {
	key := iface.String() + "." + method
	if cached, ok := fl.ifaceCache[key]; ok {
		return cached
	}
	var out []*types.Func
	for _, tn := range fl.namedTypes {
		t := tn.Type()
		if types.IsInterface(t) {
			continue
		}
		recv := t
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(t)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, tn.Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			if _, known := fl.Funcs[fn.Origin()]; known {
				out = append(out, fn.Origin())
			}
		}
	}
	fl.ifaceCache[key] = out
	return out
}

// --- lock identity ----------------------------------------------------------

// mutexID derives a stable, instance-independent identity for the mutex a
// Lock/RLock/Unlock selector operates on: "pkgseg.Type.field" for struct
// fields (including promoted embedded mutexes) and "pkgseg.var" for
// package-level mutexes. Local mutex variables return "" — they cannot
// participate in cross-function ordering.
func mutexID(p *Package, sel *ast.SelectorExpr) string {
	// Promoted embedded mutex: s.Lock() where Lock resolves through an
	// embedded sync.Mutex field. The selection's index path names the
	// embedded field.
	if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		idx := s.Index()
		if len(idx) > 1 {
			if owner := namedOf(s.Recv()); owner != nil {
				if st, ok := owner.Underlying().(*types.Struct); ok && idx[0] < st.NumFields() {
					return typeID(owner) + "." + st.Field(idx[0]).Name()
				}
			}
		}
	}
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		// s.mu.Lock(): mu is a field of s's type, or pkg.mu.Lock().
		if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok {
			if v.IsField() {
				if tv, ok := p.Info.Types[x.X]; ok && tv.Type != nil {
					if owner := namedOf(tv.Type); owner != nil {
						return typeID(owner) + "." + v.Name()
					}
				}
				return ""
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return lastSegment(v.Pkg().Path()) + "." + v.Name()
			}
		}
		return ""
	case *ast.Ident:
		if v, ok := p.Info.Uses[x].(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return lastSegment(v.Pkg().Path()) + "." + v.Name()
			}
		}
		return ""
	}
	return ""
}

func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

func typeID(n *types.Named) string {
	if n.Obj().Pkg() != nil {
		return lastSegment(n.Obj().Pkg().Path()) + "." + n.Obj().Name()
	}
	return n.Obj().Name()
}

func lastSegment(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

func pathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if n := namedOf(sig.Recv().Type()); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// --- flushorder roots -------------------------------------------------------

// The flushorder classification is type-rooted rather than name-heuristic:
// the string table is strstore.Store, the WAL is wal.Log, and the corpora
// import the real packages so the same resolution covers both.

func isStrstoreMethod(fn *types.Func, names ...string) bool {
	if fn.Pkg() == nil || !pathHasSegment(fn.Pkg().Path(), "strstore") {
		return false
	}
	if receiverTypeName(fn) != "Store" {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

func foClassify(fn *types.Func) int {
	switch {
	case isStrstoreMethod(fn, "Intern"):
		return foEvIntern
	case isStrstoreMethod(fn, "Flush", "Sync", "Close"):
		return foEvFlush
	case fn.Pkg() != nil && pathHasSegment(fn.Pkg().Path(), "wal") &&
		receiverTypeName(fn) == "Log" && (fn.Name() == "Append" || fn.Name() == "AppendBatch"):
		return foEvAppend
	}
	return foEvNone
}

const (
	foEvNone = iota
	foEvIntern
	foEvFlush
	foEvAppend
)

// --- effects ----------------------------------------------------------------

// computeEffects runs the bottom-up pass: Tarjan SCC condensation of the
// call graph, then per-SCC fixpoint iteration (all effect components are
// monotone over small lattices, so a handful of rounds converge).
func (fl *Flow) computeEffects() {
	for fn := range fl.Funcs {
		fl.effects[fn] = &Effect{Locks: make(map[string]bool), StrTransfer: foID}
	}
	sccs := fl.condense()
	for _, scc := range sccs { // already reverse-topological (callees first)
		for round := 0; ; round++ {
			changed := false
			for _, fn := range scc {
				if fl.updateEffect(fl.Funcs[fn]) {
					changed = true
				}
			}
			if !changed || round > 8 {
				break
			}
		}
	}
}

// condense returns the call graph's SCCs in reverse topological order.
func (fl *Flow) condense() [][]*types.Func {
	fns := make([]*types.Func, 0, len(fl.Funcs))
	for fn := range fl.Funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	index := make(map[*types.Func]int)
	low := make(map[*types.Func]int)
	onStack := make(map[*types.Func]bool)
	var stack []*types.Func
	var sccs [][]*types.Func
	next := 0

	var strongconnect func(fn *types.Func)
	strongconnect = func(fn *types.Func) {
		index[fn] = next
		low[fn] = next
		next++
		stack = append(stack, fn)
		onStack[fn] = true
		for _, c := range fl.Funcs[fn].Calls {
			for _, t := range c.Targets {
				if _, seen := index[t]; !seen {
					strongconnect(t)
					if low[t] < low[fn] {
						low[fn] = low[t]
					}
				} else if onStack[t] && index[t] < low[fn] {
					low[fn] = index[t]
				}
			}
		}
		if low[fn] == index[fn] {
			var scc []*types.Func
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				scc = append(scc, top)
				if top == fn {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, fn := range fns {
		if _, seen := index[fn]; !seen {
			strongconnect(fn)
		}
	}
	return sccs // Tarjan emits SCCs callees-first
}

// updateEffect recomputes fn's summary from its body and current callee
// summaries, reporting whether anything changed.
func (fl *Flow) updateEffect(fi *FuncInfo) bool {
	e := fl.effects[fi.Obj]
	changed := false

	for _, id := range localLockIDs(fi) {
		if !e.Locks[id] {
			e.Locks[id] = true
			changed = true
		}
	}

	for _, c := range fi.Calls {
		if c.Spawned {
			continue
		}
		for _, t := range c.Targets {
			te := fl.effects[t]
			if te == nil {
				continue
			}
			for id := range te.Locks {
				if !e.Locks[id] {
					e.Locks[id] = true
					changed = true
				}
			}
		}
	}

	// Flush-ordering transfer: a linear source-order scan with callee
	// substitution (see foScan).
	r := fl.foScan(fi, nil)
	if r.transfer != e.StrTransfer {
		e.StrTransfer = r.transfer
		changed = true
	}
	if r.appendsUnflushed && !e.AppendsUnflushed {
		e.AppendsUnflushed = true
		changed = true
	}
	return changed
}

// foScan is the flushorder abstract interpretation of one function: walk
// the call sites in source order tracking whether freshly interned strings
// may be sitting unflushed in the string table's user-space buffer. When
// report is non-nil, definite violations (append while dirty) are passed
// to it.
type foScanResult struct {
	transfer         int
	appendsUnflushed bool
}

func (fl *Flow) foScan(fi *FuncInfo, report func(c FlowCall, via *types.Func)) foScanResult {
	const (
		stUnknown = iota // caller-determined; nothing interned locally yet
		stClean
		stDirty
	)
	state := stUnknown
	res := foScanResult{transfer: foID}
	for _, c := range fi.Calls {
		if c.Spawned {
			continue // runs on another goroutine; its ordering is its own
		}
		ev, viaApp := foEvNone, (*types.Func)(nil)
		var calleeTransfer = foID
		calleeAppends := false
		for _, t := range c.Targets {
			switch cls := foClassify(t); cls {
			case foEvIntern, foEvFlush, foEvAppend:
				if ev == foEvNone || cls == foEvIntern { // dirty wins joins
					ev = cls
				}
				if cls == foEvAppend {
					viaApp = t
				}
			default:
				te := fl.effects[t]
				if te == nil {
					continue
				}
				if te.AppendsUnflushed {
					calleeAppends = true
					viaApp = t
				}
				switch te.StrTransfer {
				case foGen:
					calleeTransfer = foGen // dirty wins joins
				case foKill:
					if calleeTransfer == foID {
						calleeTransfer = foKill
					}
				}
			}
		}
		switch ev {
		case foEvIntern:
			state = stDirty
		case foEvFlush:
			state = stClean
		case foEvAppend:
			if state == stDirty && report != nil {
				report(c, viaApp)
			}
			if state == stUnknown {
				res.appendsUnflushed = true
			}
		default:
			if calleeAppends {
				if state == stDirty && report != nil {
					report(c, viaApp)
				}
				if state == stUnknown {
					res.appendsUnflushed = true
				}
			}
			switch calleeTransfer {
			case foGen:
				state = stDirty
			case foKill:
				state = stClean
			}
		}
	}
	switch state {
	case stDirty:
		res.transfer = foGen
	case stClean:
		res.transfer = foKill
	}
	return res
}

// localLockIDs returns the type-level IDs of mutexes fi's body acquires
// directly (outside spawned goroutine literals).
func localLockIDs(fi *FuncInfo) []string {
	var out []string
	for _, c := range fi.Calls {
		if c.Spawned {
			continue
		}
		sel, ok := c.Site.Fun.(*ast.SelectorExpr)
		if !ok || !isMutexMethod(fi.Pkg, sel) {
			continue
		}
		if sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
			continue
		}
		if id := mutexID(fi.Pkg, sel); id != "" {
			out = append(out, id)
		}
	}
	return out
}
