package analysis

// Whole-program analysis: a Program is every module package of one load
// (the `go list -deps` closure minus the standard library) with a call
// graph over it. Per-package passes see one package's syntax; a Program
// pass sees every function in the module at once, which is what lock
// ordering needs: two locks nest across package boundaries (the buffer
// pool's lock held while a File's is taken) where no single-package pass
// sees both.
//
// The call graph is intentionally modest and deterministic:
//
//   - static calls resolve through the type checker (functions, methods,
//     immediately-invoked or enclosed function literals);
//   - calls through an interface method expand to every concrete method
//     in the program whose receiver type implements the interface — the
//     module's interface surfaces (vector.Vector, storage.FS, ...) are
//     small, so this stays precise;
//   - calls through plain function *values* (fields, parameters) do not
//     produce edges. A function literal is linked from the function that
//     lexically creates it, so facts seeded anywhere inside a function
//     body are visible to its callers.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A FuncNode is one function in the program's call graph: a declared
// function or method (Decl != nil) or a function literal (Lit != nil).
type FuncNode struct {
	// Obj is the declared function's object; nil for literals.
	Obj *types.Func
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Encl is the function that lexically encloses a literal; nil for
	// declared functions.
	Encl *FuncNode
	// Pkg is the package the function's body lives in.
	Pkg *Package
	// Calls are the node's resolved call sites, in source order.
	Calls []*Call
}

// Body returns the node's body block (nil for bodiless declarations).
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	return n.Decl.Body
}

// Name returns a diagnostic-friendly name: pkg.Func, pkg.(Type).Method,
// or pkg.Outer.funcN for literals.
func (n *FuncNode) Name() string {
	if n.Lit != nil {
		if n.Encl != nil {
			return n.Encl.Name() + ".func"
		}
		return n.Pkg.Types.Name() + ".func"
	}
	if recv := n.Obj.Type().(*types.Signature).Recv(); recv != nil {
		return fmt.Sprintf("%s.(%s).%s", n.Pkg.Types.Name(), typeShortName(recv.Type()), n.Obj.Name())
	}
	return n.Pkg.Types.Name() + "." + n.Obj.Name()
}

// A Call is one resolved call edge out of a FuncNode's body. Calls that
// resolve to no function in the program (the standard library, function
// values) make no edge.
type Call struct {
	// Site is the call expression; for the synthetic "encloses" edge to a
	// function literal, Site is nil.
	Site *ast.CallExpr
	// Callee is the target's node.
	Callee *FuncNode
	// Go marks a `go` statement's call.
	Go bool
	// Defer marks a `defer` statement's call.
	Defer bool
}

// A Program is one whole-module load with its call graph.
type Program struct {
	Fset *token.FileSet
	// Pkgs are the module's packages, sorted by import path.
	Pkgs []*Package
	// Funcs maps every declared function object to its node.
	Funcs map[*types.Func]*FuncNode
	// Nodes is every node — declared and literal — in deterministic
	// (package, position) order.
	Nodes []*FuncNode

	callers map[*FuncNode][]*FuncNode
	anns    map[*Package]*Annotations
	ifaces  []ifaceImpl
}

// ifaceImpl records one concrete method implementing one interface
// method, precomputed for dispatch expansion.
type ifaceImpl struct {
	iface *types.Func // the interface method object
	impl  *FuncNode   // a concrete method implementing it
}

// BuildProgram constructs the call graph over pkgs. The packages must
// share one FileSet and be fully type-checked (as the loader and the
// fixture harness both produce).
func BuildProgram(fset *token.FileSet, pkgs []*Package) *Program {
	p := &Program{
		Fset:    fset,
		Pkgs:    append([]*Package(nil), pkgs...),
		Funcs:   make(map[*types.Func]*FuncNode),
		callers: make(map[*FuncNode][]*FuncNode),
		anns:    make(map[*Package]*Annotations),
	}
	sort.Slice(p.Pkgs, func(i, j int) bool { return p.Pkgs[i].ImportPath < p.Pkgs[j].ImportPath })

	// Pass 1: a node per function declaration.
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
				p.Funcs[obj] = n
				p.Nodes = append(p.Nodes, n)
			}
		}
	}
	p.buildInterfaceIndex()
	// Pass 2: edges (and literal nodes) from every body.
	for _, n := range p.Nodes[:len(p.Nodes):len(p.Nodes)] {
		p.buildEdges(n)
	}
	for _, n := range p.Nodes {
		for _, c := range n.Calls {
			p.callers[c.Callee] = append(p.callers[c.Callee], n)
		}
	}
	return p
}

// Ann returns (building on demand) the package's //vx: annotation index.
func (p *Program) Ann(pkg *Package) *Annotations {
	a := p.anns[pkg]
	if a == nil {
		a = NewAnnotations(p.Fset, pkg.Files)
		p.anns[pkg] = a
	}
	return a
}

// Callers returns the nodes with a call edge to n.
func (p *Program) Callers(n *FuncNode) []*FuncNode { return p.callers[n] }

// buildInterfaceIndex precomputes, for every interface method declared in
// a module package, the concrete module methods that implement it.
func (p *Program) buildInterfaceIndex() {
	var ifaces []*types.Interface
	var concrete []types.Type
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			t := tn.Type()
			if it, ok := t.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
				continue
			}
			concrete = append(concrete, t)
		}
	}
	for _, it := range ifaces {
		for _, ct := range concrete {
			// Methods may be on T or *T; check the pointer type, whose
			// method set includes both.
			pt := types.NewPointer(ct)
			if !types.Implements(pt, it) && !types.Implements(ct, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(pt, true, im.Pkg(), im.Name())
				m, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				if node, ok := p.Funcs[m]; ok {
					p.ifaces = append(p.ifaces, ifaceImpl{iface: im, impl: node})
				}
			}
		}
	}
}

// implsOf returns the concrete nodes implementing an interface method.
func (p *Program) implsOf(im *types.Func) []*FuncNode {
	var out []*FuncNode
	for _, ii := range p.ifaces {
		if ii.iface == im {
			out = append(out, ii.impl)
		}
	}
	return out
}

// buildEdges walks one node's body, resolving call sites and creating
// nodes for the function literals it encloses.
func (p *Program) buildEdges(n *FuncNode) {
	info := n.Pkg.TypesInfo
	var walk func(root ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				lit := &FuncNode{Lit: x, Encl: n, Pkg: n.Pkg}
				p.Nodes = append(p.Nodes, lit)
				n.Calls = append(n.Calls, &Call{Callee: lit})
				p.buildEdges(lit)
				return false // the literal owns its own body
			case *ast.GoStmt:
				p.addCall(n, info, x.Call, true, false)
				walkCallParts(x.Call, walk)
				return false
			case *ast.DeferStmt:
				p.addCall(n, info, x.Call, false, true)
				walkCallParts(x.Call, walk)
				return false
			case *ast.CallExpr:
				p.addCall(n, info, x, false, false)
				return true
			}
			return true
		})
	}
	walk(n.Body())
}

// walkCallParts recurses into a go/defer call's function expression and
// arguments (the call itself was already resolved by addCall, which also
// created the node for a spawned/deferred literal).
func walkCallParts(call *ast.CallExpr, walk func(ast.Node)) {
	for _, arg := range call.Args {
		walk(arg)
	}
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); !ok {
		walk(call.Fun)
	}
}

// addCall resolves one call site to edges.
func (p *Program) addCall(n *FuncNode, info *types.Info, site *ast.CallExpr, isGo, isDefer bool) {
	fun := ast.Unparen(site.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		litNode := &FuncNode{Lit: lit, Encl: n, Pkg: n.Pkg}
		p.Nodes = append(p.Nodes, litNode)
		n.Calls = append(n.Calls, &Call{Site: site, Callee: litNode, Go: isGo, Defer: isDefer})
		p.buildEdges(litNode)
		return
	}
	obj := calleeObject(info, fun)
	if obj == nil {
		return // a call through a function value: no static edge
	}
	if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
		if _, ok := recv.Type().Underlying().(*types.Interface); ok {
			// Interface dispatch: one edge per implementing module method.
			for _, impl := range p.implsOf(obj) {
				n.Calls = append(n.Calls, &Call{Site: site, Callee: impl, Go: isGo, Defer: isDefer})
			}
			return
		}
	}
	if callee := p.Funcs[obj]; callee != nil {
		n.Calls = append(n.Calls, &Call{Site: site, Callee: callee, Go: isGo, Defer: isDefer})
	}
}

// calleeObject resolves a call's static target function object, seeing
// through selectors and generic instantiations.
func calleeObject(info *types.Info, fun ast.Expr) *types.Func {
	switch fun := fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call: pkg.F.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.IndexExpr:
		return calleeObject(info, fun.X)
	case *ast.IndexListExpr:
		return calleeObject(info, fun.X)
	}
	return nil
}

// typeShortName renders a receiver type compactly: *T or T.
func typeShortName(t types.Type) string {
	switch t := t.(type) {
	case *types.Pointer:
		return "*" + typeShortName(t.Elem())
	case *types.Named:
		return t.Obj().Name()
	default:
		return t.String()
	}
}

// A ProgramPass is one whole-program analyzer application.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags []Diagnostic
}
