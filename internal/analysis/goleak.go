package analysis

// GoLeak: every `go` statement must provably terminate. Spawning a
// goroutine that nothing bounds is how serving layers leak memory under
// sustained traffic — the federation scatter, the worker pools
// and the bench drivers all spawn, and each spawn must carry its proof.
//
// Accepted proofs, in the order checked:
//
//  1. WaitGroup discipline: the spawned function literal runs
//     `defer wg.Done()` on a sync.WaitGroup that the spawning function
//     `wg.Wait()`s on (same variable or field object) — the spawner
//     cannot return before the goroutine does.
//  2. Context polling, whole-program: the spawned function (or, through
//     the call graph, something it calls) polls a context.Context via
//     ctx.Err() or ctx.Done() — cancellation reaches it, so its
//     lifetime is bounded by the context that spawned it.
//  3. An explicit //vx:goroutine-bounded <why> annotation on the `go`
//     statement, which must carry a reason.
//
// Anything else — including `go` on a function value the call graph
// cannot resolve — is a diagnostic.

import (
	"go/ast"
	"go/types"
)

// GoLeak returns the goroutine-termination analyzer.
func GoLeak() *Analyzer {
	a := &Analyzer{
		Name: "goleak",
		Doc:  "every `go` statement is bounded: WaitGroup discipline, a reachable ctx poll, or //vx:goroutine-bounded <why>",
	}
	a.RunProgram = func(pass *ProgramPass) error {
		prog := pass.Prog
		polls := SolveBool(prog, seedPollsCtx, nil)
		for _, n := range prog.Nodes {
			seen := make(map[*ast.CallExpr]bool)
			for _, c := range n.Calls {
				if !c.Go || seen[c.Site] {
					continue
				}
				seen[c.Site] = true // interface expansion: one report per site
				if reason, ok := prog.Ann(n.Pkg).Marked(c.Site.Pos(), "goroutine-bounded"); ok {
					if reason == "" {
						pass.Reportf(c.Site.Pos(), "//vx:goroutine-bounded needs a reason: say why this goroutine terminates")
					}
					continue
				}
				if goroutineBounded(prog, n, c, polls) {
					continue
				}
				pass.Reportf(c.Site.Pos(), "goroutine may never terminate: no WaitGroup discipline and no ctx poll reachable from the spawned function; bound it or annotate //vx:goroutine-bounded <why>")
			}
		}
		return nil
	}
	return a
}

// goroutineBounded checks the structural proofs for one `go` site.
func goroutineBounded(prog *Program, spawner *FuncNode, c *Call, polls map[*FuncNode]bool) bool {
	// Resolve every callee expansion of this site (interface dispatch may
	// have produced several); all of them must be bounded.
	anyCallee := false
	allBounded := true
	for _, cc := range spawner.Calls {
		if cc.Site != c.Site || cc.Callee == nil {
			continue
		}
		anyCallee = true
		ok := polls[cc.Callee]
		if !ok && cc.Callee.Lit != nil {
			ok = waitGroupBounded(spawner, cc.Callee)
		}
		if !ok {
			allBounded = false
		}
	}
	return anyCallee && allBounded
}

// seedPollsCtx reports whether the node's own body polls a context:
// a call to .Err() or .Done() on a context.Context-typed receiver.
func seedPollsCtx(n *FuncNode) bool {
	found := false
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
			return true
		}
		if tv, ok := n.Pkg.TypesInfo.Types[sel.X]; ok && isContextType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// waitGroupBounded reports whether a spawned literal follows WaitGroup
// discipline: `defer wg.Done()` inside the literal on a sync.WaitGroup
// whose object the spawning function also calls .Wait() on.
func waitGroupBounded(spawner, lit *FuncNode) bool {
	done := waitGroupMethodObjs(lit, "Done", true)
	if len(done) == 0 {
		return false
	}
	for wg := range waitGroupMethodObjs(spawner, "Wait", false) {
		if done[wg] {
			return true
		}
	}
	return false
}

// waitGroupMethodObjs collects the sync.WaitGroup objects on which the
// node's body calls the given method (optionally requiring the call to
// be deferred), keyed by the receiver's variable or field object.
func waitGroupMethodObjs(n *FuncNode, method string, deferredOnly bool) map[types.Object]bool {
	out := make(map[types.Object]bool)
	deferred := make(map[*ast.CallExpr]bool)
	if deferredOnly {
		ast.Inspect(n.Body(), func(x ast.Node) bool {
			if d, ok := x.(*ast.DeferStmt); ok {
				deferred[d.Call] = true
			}
			return true
		})
	}
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if deferredOnly && !deferred[call] {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return true
		}
		obj := lockTargetObj(n.Pkg.TypesInfo, sel.X)
		if obj == nil || !isWaitGroup(obj.Type()) {
			return true
		}
		out[obj] = true
		return true
	})
	return out
}

// isWaitGroup reports whether t is sync.WaitGroup (or a pointer to it).
func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
