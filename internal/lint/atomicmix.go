package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// AtomicMix keeps every atomic in the module typed: no call into
// sync/atomic's function API (atomic.AddInt64, atomic.LoadUint32, …). A
// plain field handed to those functions can be read or written plainly
// elsewhere — even under a mutex the atomic side never takes — and the
// race only shows when both paths meet under -race. A typed atomic
// (atomic.Int64, atomic.Bool, …) makes the mix a compile error, and
// copying the struct that holds it a `go vet` copylocks error, so this
// per-package rule closes the bug shape without a whole-module field
// index.
var AtomicMix = &Analyzer{
	Code: "atomicmix",
	Doc:  "no sync/atomic function calls: use the typed atomics (atomic.Int64, atomic.Bool, ...) so plain access cannot compile",
	Run:  runAtomicMix,
}

func runAtomicMix(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // a typed atomic's method
			}
			out = append(out, Finding{
				Pos:  p.Fset.Position(sel.Pos()),
				Code: "atomicmix",
				Message: fmt.Sprintf("atomic.%s on a plain value lets other code read or write it plainly; declare it as a typed atomic (atomic.Int64, atomic.Bool, ...) and use its methods",
					fn.Name()),
			})
			return true
		})
	}
	return out
}
