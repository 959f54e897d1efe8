package analysis

// HotAlloc: no avoidable per-iteration allocation inside loops that run
// on a hot path. Entry points carry a //vx:hot doc annotation (the
// scan/merge choke points — the engine's reader.Scan, shard.MergeResults);
// every function reachable from one through the call graph is checked.
// This is exactly the class of the cancel-polling regression: a closure
// allocated per scanned value cost ~8% on scan-bound queries before the
// engine's scan wrapper was rewritten into chunked sub-scans.
//
// Inside a loop of a hot function, three allocation shapes are flagged:
//
//   - a function literal that escapes (passed or assigned, not
//     immediately invoked): one closure allocation per iteration;
//   - append to a slice the function declared without capacity: growth
//     reallocations the declaration could have hoisted;
//   - interface boxing: a concrete non-pointer value passed to an
//     interface parameter or converted to an interface type.
//
// Allocations on a loop's exit path (a block ending in return, break or
// panic — error construction, mostly) are exempt: they run at most
// once. //vx:alloc <why> sanctions a finding in place.

import (
	"go/ast"
	"go/types"
)

// HotAlloc returns the hot-path allocation analyzer.
func HotAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "no closure creation, capacity-less append growth, or interface boxing in loops reachable from //vx:hot entry points",
	}
	a.RunProgram = func(pass *ProgramPass) error {
		prog := pass.Prog
		var roots []*FuncNode
		for _, n := range prog.Nodes {
			if n.Decl == nil {
				continue
			}
			if _, ok := DocAnnotation(n.Decl.Doc, "hot"); ok {
				roots = append(roots, n)
			}
		}
		if len(roots) == 0 {
			return nil
		}
		for n := range prog.Reachable(roots) {
			checkHotFunc(pass, n)
		}
		return nil
	}
	return a
}

// checkHotFunc walks one hot function's body tracking loop nesting and
// exit-path blocks.
func checkHotFunc(pass *ProgramPass, n *FuncNode) {
	info := n.Pkg.TypesInfo
	ann := pass.Prog.Ann(n.Pkg)
	prealloc := preallocatedSlices(n)

	var walk func(node ast.Node, inLoop, exitPath bool)
	walk = func(root ast.Node, inLoop, exitPath bool) {
		ast.Inspect(root, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				if inLoop && !exitPath {
					if _, ok := ann.Marked(x.Pos(), "alloc"); !ok {
						pass.Reportf(x.Pos(), "closure allocated per iteration in a //vx:hot loop (the per-value closure regression class); hoist it, restructure, or annotate //vx:alloc <why>")
					}
				}
				return false // the literal's own body is its own (reachable) node
			case *ast.ForStmt:
				walkForParts(x, walk, inLoop, exitPath)
				walk(x.Body, true, false)
				return false
			case *ast.RangeStmt:
				walk(x.X, inLoop, exitPath)
				walk(x.Body, true, false)
				return false
			case *ast.BlockStmt:
				if inLoop && !exitPath && blockExits(x) {
					walk2Block(x, walk, inLoop)
					return false
				}
				return true
			case *ast.CallExpr:
				if inLoop && !exitPath {
					checkHotCall(pass, info, ann, prealloc, x)
				}
				return true
			}
			return true
		})
	}
	walk(n.Body(), false, false)
}

// walkForParts visits a for statement's init/cond/post outside the loop
// body's context.
func walkForParts(f *ast.ForStmt, walk func(ast.Node, bool, bool), inLoop, exitPath bool) {
	if f.Init != nil {
		walk(f.Init, inLoop, exitPath)
	}
	if f.Cond != nil {
		walk(f.Cond, inLoop, exitPath)
	}
	if f.Post != nil {
		walk(f.Post, true, false) // the post statement runs per iteration
	}
}

// walk2Block re-walks an exit block's statements with exitPath set.
func walk2Block(b *ast.BlockStmt, walk func(ast.Node, bool, bool), inLoop bool) {
	for _, st := range b.List {
		walk(st, inLoop, true)
	}
}

// blockExits reports whether the block's last statement leaves the loop
// or the function: return, break, panic, or continue-to-next-iteration
// after an error. Such blocks run at most once per loop lifetime on the
// happy path, so their allocations are not per-iteration costs.
func blockExits(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok.String() == "break" || last.Tok.String() == "goto"
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// checkHotCall flags capacity-less append growth and interface boxing
// at one call site inside a hot loop.
func checkHotCall(pass *ProgramPass, info *types.Info, ann *Annotations, prealloc map[types.Object]bool, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) >= 2 {
		if info.Types[id].IsBuiltin() {
			if target, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj, ok := info.Uses[target].(*types.Var); ok && !prealloc[obj] && !obj.IsField() {
					if _, marked := ann.Marked(call.Pos(), "alloc"); !marked {
						pass.Reportf(call.Pos(), "append to %s grows without preallocation inside a //vx:hot loop; size it with make(..., 0, n) up front or annotate //vx:alloc <why>", target.Name)
					}
				}
			}
			return
		}
	}
	// Interface boxing: a concrete non-pointer argument arriving at an
	// interface parameter.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, ok := pt.Underlying().(*types.Interface); !ok {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		at := tv.Type
		if _, isIface := at.Underlying().(*types.Interface); isIface {
			continue // interface to interface: no box
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue // pointers box without copying the pointee; cheap
		}
		if tv.IsNil() || tv.Value != nil {
			continue // nil and constants: hoistable by the compiler
		}
		if basicUnboxed(at) {
			continue
		}
		if _, marked := ann.Marked(call.Pos(), "alloc"); marked {
			continue
		}
		pass.Reportf(arg.Pos(), "interface boxing in a //vx:hot loop: %s converts to %s per iteration; keep the concrete type or annotate //vx:alloc <why>", at.String(), pt.String())
	}
}

// basicUnboxed reports types whose interface conversion the runtime
// serves from static cells (small integers handled by staticuint64s) —
// treating all fixed-size basics as cheap keeps the signal on the
// expensive boxes: structs, slices, strings built per iteration.
func basicUnboxed(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Bool, types.Int8, types.Uint8:
		return true
	}
	return false
}

// callSignature resolves the call's function signature when static.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// preallocatedSlices returns the slice variables the function declares
// with an explicit capacity (or any make at all — a sized make is a
// deliberate decision either way), plus parameters and named results:
// only a bare `var s []T` / `s := []T{}` declaration counts as
// unpreallocated, because that is the shape a one-line make fixes.
func preallocatedSlices(n *FuncNode) map[types.Object]bool {
	info := n.Pkg.TypesInfo
	out := make(map[types.Object]bool)
	mark := func(id *ast.Ident) {
		if obj, ok := info.Defs[id].(*types.Var); ok {
			out[obj] = true
			return
		}
		if obj, ok := info.Uses[id].(*types.Var); ok {
			out[obj] = true
		}
	}
	// Parameters and results: sized by the caller; not this function's
	// declaration to fix.
	var ft *ast.FuncType
	if n.Lit != nil {
		ft = n.Lit.Type
	} else {
		ft = n.Decl.Type
	}
	for _, fl := range []*ast.FieldList{ft.Params, ft.Results} {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				mark(name)
			}
		}
	}
	if n.Decl != nil && n.Decl.Recv != nil {
		for _, f := range n.Decl.Recv.List {
			for _, name := range f.Names {
				mark(name)
			}
		}
	}
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var rhs ast.Expr
				switch {
				case len(x.Rhs) == len(x.Lhs):
					rhs = x.Rhs[i]
				case len(x.Rhs) == 1:
					rhs = x.Rhs[0] // multi-assign from one call
				default:
					continue
				}
				if sizedAlloc(rhs) {
					mark(id)
				}
			}
		case *ast.ValueSpec:
			for i, id := range x.Names {
				if i < len(x.Values) && sizedAlloc(x.Values[i]) {
					mark(id)
				}
			}
		case *ast.RangeStmt:
			// Range variables over slices are views, not growth targets.
			if id, ok := x.Key.(*ast.Ident); ok {
				mark(id)
			}
			if id, ok := x.Value.(*ast.Ident); ok {
				mark(id)
			}
		}
		return true
	})
	return out
}

// sizedAlloc reports expressions that size their backing store: make
// with any length/capacity, a literal with elements, or a call result
// (the callee sized it).
func sizedAlloc(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		// make(...) or a function that sized its result — but not append,
		// whose self-assignment is the very growth pattern under check.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			return false
		}
		return true
	case *ast.CompositeLit:
		return len(e.Elts) > 0
	case *ast.SliceExpr, *ast.SelectorExpr, *ast.IndexExpr:
		return true // a slice of / field of something already built
	}
	return false
}
