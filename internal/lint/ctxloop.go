package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ctxLoopPackages are the serving-path packages where every scan loop is
// required to observe cancellation (the PR-3 serving contract): a loop
// that never consults ctx keeps burning CPU and holding the admission
// slot after the client has gone away.
var ctxLoopPackages = []string{
	"bolt", "cypher", "aion", "timestore", "lineagestore",
	// PR-9 failover paths: follower stream loops and fault-injection plumbing
	// must die promptly with their context, or promotion hangs on shutdown.
	"replica", "netfault",
}

// CtxLoop flags loops, in functions that take a context.Context, whose
// bodies neither reference the ctx nor hand it to a helper. Only the
// outermost offending loop is reported: an inner loop under an outer
// loop that checks ctx each iteration has bounded staleness, which is
// the same guarantee a strided check gives. A goroutine literal the
// function launches is part of its body: a bare spinner started from the
// serving path is a blind loop like any other.
var CtxLoop = &Analyzer{
	Code: "ctxloop",
	Doc:  "serving-path loops in ctx-taking functions must observe cancellation (directly or via a ctx-aware helper)",
	Run:  runCtxLoop,
}

func runCtxLoop(p *Package) []Finding {
	if !p.hasAnySegment(ctxLoopPackages...) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			ctxVars := ctxParams(p, fn)
			if len(ctxVars) == 0 {
				return true
			}
			out = append(out, checkLoops(p, fn, ctxVars)...)
			return true
		})
	}
	return out
}

// ctxParams returns the context.Context parameters of fn (by object when
// type information resolved, by name as a fallback). Blank parameters
// don't count: a function that declares ctx and discards it has no way
// to honor cancellation anyway, and gets caught in review, not here.
func ctxParams(p *Package, fn *ast.FuncDecl) map[types.Object]string {
	vars := make(map[types.Object]string)
	if fn.Type.Params == nil {
		return vars
	}
	for _, field := range fn.Type.Params.List {
		if !isCtxType(p, field.Type) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := p.Info.Defs[name]
			vars[obj] = name.Name // obj may be nil: name fallback still works
		}
	}
	return vars
}

func isCtxType(p *Package, e ast.Expr) bool {
	if tv, ok := p.Info.Types[e]; ok && tv.Type != nil {
		return tv.Type.String() == "context.Context"
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "context"
}

// checkLoops walks fn's body and reports outermost loops whose subtrees
// never touch ctx. Subtrees of calls that receive ctx are skipped
// entirely: a closure handed to a ctx-aware helper (the per-update callback
// of timestore's replayWal, say) delegates its cancellation duty to the
// helper.
func checkLoops(p *Package, fn *ast.FuncDecl, ctxVars map[types.Object]string) []Finding {
	var out []Finding
	ast.Inspect(fn.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if refsCtx(p, m, ctxVars) {
				return false // delegated to a ctx-aware helper
			}
		case *ast.ForStmt, *ast.RangeStmt:
			if !refsCtx(p, m, ctxVars) {
				out = append(out, Finding{
					Pos:  p.Fset.Position(m.Pos()),
					Code: "ctxloop",
					Message: fmt.Sprintf("loop in %s never observes ctx cancellation; add a (strided) ctx.Err() check or use a ctx-aware helper",
						fn.Name.Name),
				})
			}
			return false // never descend into loops: one finding per chain
		}
		return true
	})
	return out
}

// refsCtx reports whether any identifier under n resolves to (or, absent
// type info, is named like) one of the function's ctx parameters.
func refsCtx(p *Package, n ast.Node, ctxVars map[types.Object]string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if obj, ok := p.Info.Uses[id]; ok && obj != nil {
			if _, hit := ctxVars[obj]; hit {
				found = true
			}
			return !found
		}
		for _, name := range ctxVars {
			if id.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}
