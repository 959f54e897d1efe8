package analysis

import (
	"go/ast"
	"go/token"
)

// RecoverScope enforces the panic-isolation contract: recover() may appear
// only at //vx:recover-boundary-annotated choke points, and such a
// boundary must capture the panicking goroutine's stack (a runtime/debug
// Stack call in the same function as the recover). Anything else is
// silent panic-swallowing — the process survives but the defect vanishes,
// which is worse than crashing.
func RecoverScope() *Analyzer {
	a := &Analyzer{
		Name: "recoverscope",
		Doc:  "recover() only at //vx:recover-boundary choke points that capture the stack",
	}
	a.Run = func(pass *Pass) error {
		ann := NewAnnotations(pass.Fset, pass.Files)
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkRecovers(pass, ann, fn)
			}
		}
		return nil
	}
	return a
}

// fnInterval is one function body's source extent — the declaration's own
// body or a function literal inside it.
type fnInterval struct {
	pos, end token.Pos
}

func (iv fnInterval) contains(p token.Pos) bool { return iv.pos <= p && p < iv.end }

// checkRecovers audits one top-level function: every recover() call must
// be annotated, and its innermost enclosing function (deferred closures
// are the usual shape) must also call debug.Stack so the capture reaches
// /debug/panics with a stack attached.
func checkRecovers(pass *Pass, ann *Annotations, fn *ast.FuncDecl) {
	bodies := []fnInterval{{fn.Body.Pos(), fn.Body.End()}}
	var recovers, stacks []token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			bodies = append(bodies, fnInterval{n.Body.Pos(), n.Body.End()})
		case *ast.CallExpr:
			if isBuiltin(pass.TypesInfo, n, "recover") {
				recovers = append(recovers, n.Pos())
			}
			if isPkgFunc(pass.TypesInfo, n, "runtime/debug", "Stack") {
				stacks = append(stacks, n.Pos())
			}
		}
		return true
	})
	if len(recovers) == 0 {
		return
	}
	// innermost returns the index of the smallest body containing p —
	// bodies nest, so the smallest containing interval is the enclosing
	// function.
	innermost := func(p token.Pos) int {
		best := -1
		for i, b := range bodies {
			if !b.contains(p) {
				continue
			}
			if best < 0 || b.end-b.pos < bodies[best].end-bodies[best].pos {
				best = i
			}
		}
		return best
	}
	for _, rp := range recovers {
		if _, ok := ann.Marked(rp, "recover-boundary"); !ok {
			pass.Reportf(rp, "recover() outside a //vx:recover-boundary choke point: panics must be handled at the sanctioned boundary, not swallowed locally")
			continue
		}
		rb := innermost(rp)
		hasStack := false
		for _, sp := range stacks {
			if innermost(sp) == rb {
				hasStack = true
				break
			}
		}
		if !hasStack {
			pass.Reportf(rp, "recover boundary must capture the stack: call debug.Stack() in the same function as recover()")
		}
	}
}
