package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// fsyncMethods are the fsync-class calls: they block on stable storage,
// which on a busy disk is milliseconds — an eternity under a mutex the
// read path contends on.
var fsyncMethods = map[string]bool{
	"Sync":    true,
	"SyncDir": true,
}

// LockIO flags fsync-class calls made while a sync.Mutex/RWMutex
// acquired in the same function is still held. The tracking is a linear,
// source-order scan: Lock marks the mutex held, Unlock releases it, a
// deferred Unlock holds it to the end of the function. The one
// cross-function flow followed is the repo's naming convention: a
// function named *Locked is entered with its caller's lock held.
var LockIO = &Analyzer{
	Code: "lockio",
	Doc:  "no fsync-class call (Sync/SyncDir) while a mutex acquired in the same function is held",
	Run:  runLockIO,
}

func runLockIO(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					out = append(out, scanFuncLocks(p, n.Name.Name, n.Body)...)
				}
				return false // scanFuncLocks visits nested literals itself
			case *ast.FuncLit:
				out = append(out, scanFuncLocks(p, "func literal", n.Body)...)
				return false
			}
			return true
		})
	}
	return out
}

// scanFuncLocks walks one function body in source order tracking which
// mutexes (keyed by receiver expression text) are held.
func scanFuncLocks(p *Package, fname string, body *ast.BlockStmt) []Finding {
	var out []Finding
	held := make(map[string]bool)
	if strings.HasSuffix(fname, "Locked") {
		held["the caller's lock"] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			out = append(out, scanFuncLocks(p, "func literal", n.Body)...) // separate lock scope
			return false
		case *ast.DeferStmt:
			// a deferred Unlock keeps the mutex held for the rest of the
			// function; a deferred Sync runs outside our ordering model
			// and is handled conservatively as "under whatever is held".
			if sel, ok := n.Call.Fun.(*ast.SelectorExpr); ok && isMutexMethod(p, sel) {
				return false // don't treat the deferred Unlock as a release
			}
			return true
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			key := exprString(sel.X)
			switch {
			case isMutexMethod(p, sel):
				switch sel.Sel.Name {
				case "Lock", "RLock":
					held[key] = true
				case "Unlock", "RUnlock":
					delete(held, key)
				}
			case fsyncMethods[sel.Sel.Name] && callReturnsError(p, n) && len(held) > 0:
				out = append(out, Finding{
					Pos:  p.Fset.Position(n.Pos()),
					Code: "lockio",
					Message: fmt.Sprintf("%s.%s() in %s while %s is held: fsync under a lock stalls every contender for the duration of the disk flush",
						key, sel.Sel.Name, fname, heldNames(held)),
				})
			}
		}
		return true
	})
	return out
}

// isMutexMethod reports whether sel resolves to a method of sync.Mutex,
// sync.RWMutex, or sync.Locker (including promoted embedded mutexes,
// which Uses resolves to the underlying sync method). The fallback, when
// the type-checker has nothing, is the repo's naming convention: a
// receiver whose path ends in "mu"/"Mu" with a Lock-family selector.
func isMutexMethod(p *Package, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return false
	}
	if obj, ok := p.Info.Uses[sel.Sel]; ok && obj != nil {
		fn, ok := obj.(*types.Func)
		if !ok {
			return false
		}
		full := fn.FullName()
		return strings.HasPrefix(full, "(*sync.Mutex).") ||
			strings.HasPrefix(full, "(*sync.RWMutex).") ||
			strings.HasPrefix(full, "(sync.Locker).")
	}
	name := exprString(sel.X)
	return strings.HasSuffix(name, "mu") || strings.HasSuffix(name, "Mu") || strings.HasSuffix(name, "Mutex")
}

func callReturnsError(p *Package, call *ast.CallExpr) bool {
	if tv, ok := p.Info.Types[call.Fun]; ok {
		sig, ok := tv.Type.(*types.Signature)
		if !ok {
			return false
		}
		return signatureReturnsError(sig)
	}
	return true
}

func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	// map order is fine for one name (the common case); sort for more.
	if len(names) > 1 {
		for i := 0; i < len(names); i++ {
			for j := i + 1; j < len(names); j++ {
				if names[j] < names[i] {
					names[i], names[j] = names[j], names[i]
				}
			}
		}
	}
	return strings.Join(names, ", ")
}
