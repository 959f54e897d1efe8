package analysis

// LockOrder: derive the global lock-acquisition-order graph and flag
// cycles. Two mutexes acquired in both orders on different code paths
// are a deadlock waiting for the right interleaving — exactly the class
// of bug the run-compression and pool-fill races showed lives at
// package boundaries, where no single-package pass can see both paths.
//
// Lock identity is the declared variable or field *object* abstracted to
// its declaration (every Engine's e.mu is one lock "core.Engine.mu"),
// the standard abstraction for static lock-order analysis. Edges come
// from two observations:
//
//   - lexical nesting: X.Lock() while Y is held in the same function
//     adds Y -> X;
//   - interprocedural nesting: calling f() while Y is held adds
//     Y -> X for every lock X that f (or anything f statically calls,
//     `go` edges excluded — a spawned goroutine does not run under the
//     caller's locks) may acquire.
//
// Any cycle in the resulting graph is reported once, naming both paths
// with their positions. //vx:lockorder <why> on an acquisition or call
// site excludes that site's edges from the graph.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder returns the lock-ordering analyzer.
func LockOrder() *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
		Doc:  "the global lock-acquisition-order graph (lexical + call-graph nesting) is cycle-free",
	}
	a.RunProgram = func(pass *ProgramPass) error {
		prog := pass.Prog
		acquires := Solve(prog, FlowProblem[lockSet]{
			Seed: func(n *FuncNode) lockSet { return directAcquires(n) },
			Transfer: func(n *FuncNode, acc lockSet, c *Call, callee lockSet) lockSet {
				if c.Go {
					return acc // a goroutine's locks are not held by the spawner
				}
				return acc.union(callee)
			},
			Equal: func(a, b lockSet) bool { return a.equal(b) },
		})
		g := newLockGraph()
		for _, n := range prog.Nodes {
			collectEdges(prog, n, acquires, g)
		}
		reportCycles(pass, g)
		return nil
	}
	return a
}

// A lockSet is the set of lock objects a function may acquire, with one
// example position per lock.
type lockSet map[types.Object]token.Pos

func (s lockSet) union(o lockSet) lockSet {
	if len(o) == 0 {
		return s
	}
	grew := false
	for k, pos := range o {
		if _, ok := s[k]; !ok {
			if !grew {
				// Copy-on-grow keeps Seed results immutable across visits.
				ns := make(lockSet, len(s)+len(o))
				for k2, v2 := range s {
					ns[k2] = v2
				}
				s, grew = ns, true
			}
			s[k] = pos
		}
	}
	return s
}

func (s lockSet) equal(o lockSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if _, ok := o[k]; !ok {
			return false
		}
	}
	return true
}

// lockTargetObj resolves the receiver expression of a Lock/Unlock/Wait
// call to the variable or field object that identifies it: the field
// object for `x.mu`, the variable object for a bare `mu`.
func lockTargetObj(info *types.Info, expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		if obj, ok := info.Uses[e.Sel]; ok {
			return obj
		}
	case *ast.Ident:
		return info.Uses[e]
	}
	return nil
}

// lockName renders a lock object for diagnostics: pkg.Type.field for
// struct fields, pkg.var for package-level mutexes, func-local names
// keep their identifier.
func lockName(obj types.Object) string {
	v, ok := obj.(*types.Var)
	if !ok {
		return obj.Name()
	}
	if v.IsField() {
		// Find the named type declaring the field through its position —
		// types.Var fields do not point back, so fall back to pkg.field.
		if v.Pkg() != nil {
			return pkgShort(v.Pkg()) + "." + fieldOwner(v) + v.Name()
		}
		return v.Name()
	}
	if v.Pkg() != nil {
		return pkgShort(v.Pkg()) + "." + v.Name()
	}
	return v.Name()
}

func pkgShort(p *types.Package) string { return p.Name() }

// fieldOwner returns "Type." for a field var when its owner is
// recoverable from the package scope, else "".
func fieldOwner(v *types.Var) string {
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name() + "."
			}
		}
	}
	return ""
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer, or a struct embedding one — the embedded case surfaces as a
// method set promotion, so the receiver type itself suffices here).
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// A lockEvt is one step of a function's lexical lock simulation.
type lockEvt struct {
	pos   token.Pos
	obj   types.Object // lock object for acquire/release; nil for calls
	delta int          // +1 acquire, -1 release, 0 call
	call  *Call        // the call, for delta == 0
}

// directAcquires returns the locks the node's own body acquires.
func directAcquires(n *FuncNode) lockSet {
	s := make(lockSet)
	for _, ev := range lockEvents(n) {
		if ev.delta == 1 {
			if _, ok := s[ev.obj]; !ok {
				s[ev.obj] = ev.pos
			}
		}
	}
	if len(s) == 0 {
		return nil
	}
	return s
}

// lockEvents extracts the node's acquire/release/call events in source
// order. Deferred unlocks release at function end (they never lower the
// hold count mid-body); deferred Lock calls are ignored.
func lockEvents(n *FuncNode) []lockEvt {
	info := n.Pkg.TypesInfo
	var events []lockEvt
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // nested literals own their bodies (nodes of their own)
		case *ast.DeferStmt:
			deferred[x.Call] = true
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var delta int
			switch sel.Sel.Name {
			case "Lock", "RLock":
				delta = 1
			case "Unlock", "RUnlock":
				delta = -1
			default:
				return true
			}
			if tv, ok := info.Types[sel.X]; !ok || !isMutexType(tv.Type) {
				return true
			}
			if deferred[x] {
				return true // releases at function end; acquires via defer are not a pattern here
			}
			obj := lockTargetObj(info, sel.X)
			if obj == nil {
				return true
			}
			events = append(events, lockEvt{pos: x.Pos(), obj: obj, delta: delta})
		}
		return true
	})
	// Call events, merged in source order.
	for _, c := range n.Calls {
		if c.Site == nil || c.Defer {
			continue
		}
		events = append(events, lockEvt{pos: c.Site.Pos(), call: c})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events
}

// A lockEdge is one observed ordering: from held while to acquired.
type lockEdge struct {
	from, to types.Object
	pos      token.Position // where the ordering was observed
	via      string         // "" for lexical nesting, callee name for call edges
}

type lockGraph struct {
	edges map[[2]types.Object]*lockEdge
	next  map[types.Object][]types.Object
}

func newLockGraph() *lockGraph {
	return &lockGraph{edges: make(map[[2]types.Object]*lockEdge), next: make(map[types.Object][]types.Object)}
}

func (g *lockGraph) add(e *lockEdge) {
	key := [2]types.Object{e.from, e.to}
	if _, ok := g.edges[key]; ok {
		return
	}
	g.edges[key] = e
	g.next[e.from] = append(g.next[e.from], e.to)
}

// collectEdges simulates one function and feeds the graph.
func collectEdges(prog *Program, n *FuncNode, acquires map[*FuncNode]lockSet, g *lockGraph) {
	ann := prog.Ann(n.Pkg)
	held := make(map[types.Object]int)
	var order []types.Object // held locks in acquisition order
	// //vx:locked <mu> on the declaration means callers hold <mu>; the
	// lockorder graph cannot resolve the caller's object from a name, so
	// the annotation only affects lockguard. Start empty.
	for _, ev := range lockEvents(n) {
		switch {
		case ev.delta == 1:
			if _, skip := ann.Marked(ev.pos, "lockorder"); !skip {
				for _, h := range order {
					if held[h] > 0 {
						g.add(&lockEdge{from: h, to: ev.obj, pos: prog.Fset.Position(ev.pos)})
					}
				}
			}
			held[ev.obj]++
			order = append(order, ev.obj)
		case ev.delta == -1:
			held[ev.obj]--
		default:
			c := ev.call
			callee := acquires[c.Callee]
			if len(callee) == 0 {
				continue
			}
			if _, skip := ann.Marked(ev.pos, "lockorder"); skip {
				continue
			}
			for _, h := range order {
				if held[h] <= 0 {
					continue
				}
				for lock := range callee {
					if lock == h {
						continue // re-acquisition through calls is lockguard's domain
					}
					g.add(&lockEdge{from: h, to: lock, pos: prog.Fset.Position(ev.pos), via: c.Callee.Name()})
				}
			}
		}
	}
}

// reportCycles finds cycles in the order graph and reports each once,
// naming both paths. Detection is a DFS from every node over the edge
// relation; a back edge to a node on the current stack closes a cycle.
func reportCycles(pass *ProgramPass, g *lockGraph) {
	// Deterministic node order.
	nodes := make([]types.Object, 0, len(g.next))
	for n := range g.next {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return lockName(nodes[i]) < lockName(nodes[j]) })
	reported := make(map[string]bool)
	var stack []types.Object
	onStack := make(map[types.Object]int)
	var dfs func(n types.Object)
	dfs = func(n types.Object) {
		onStack[n] = len(stack)
		stack = append(stack, n)
		succs := append([]types.Object(nil), g.next[n]...)
		sort.Slice(succs, func(i, j int) bool { return lockName(succs[i]) < lockName(succs[j]) })
		for _, s := range succs {
			if at, ok := onStack[s]; ok {
				cycle := append([]types.Object(nil), stack[at:]...)
				reportCycle(pass, g, cycle, reported)
				continue
			}
			dfs(s)
		}
		stack = stack[:len(stack)-1]
		delete(onStack, n)
	}
	visited := make(map[types.Object]bool)
	for _, n := range nodes {
		if !visited[n] {
			walkMark(g, n, visited)
			dfs(n)
		}
	}
}

// walkMark marks n's reachable set visited so each component roots one
// DFS (cycles inside are still found from that root).
func walkMark(g *lockGraph, n types.Object, visited map[types.Object]bool) {
	if visited[n] {
		return
	}
	visited[n] = true
	for _, s := range g.next[n] {
		walkMark(g, s, visited)
	}
}

// reportCycle emits one diagnostic for a cycle, canonicalized so the
// same cycle found from different DFS roots reports once.
func reportCycle(pass *ProgramPass, g *lockGraph, cycle []types.Object, reported map[string]bool) {
	names := make([]string, len(cycle))
	for i, o := range cycle {
		names[i] = lockName(o)
	}
	// Canonical key: rotate so the smallest name leads.
	min := 0
	for i := range names {
		if names[i] < names[min] {
			min = i
		}
	}
	rot := append(append([]string(nil), names[min:]...), names[:min]...)
	key := strings.Join(rot, "->")
	if reported[key] {
		return
	}
	reported[key] = true
	objs := append(append([]types.Object(nil), cycle[min:]...), cycle[:min]...)
	var parts []string
	var firstPos token.Position
	for i := range objs {
		from, to := objs[i], objs[(i+1)%len(objs)]
		e := g.edges[[2]types.Object{from, to}]
		if e == nil {
			continue
		}
		if i == 0 {
			firstPos = e.pos
		}
		step := fmt.Sprintf("%s -> %s at %s", lockName(from), lockName(to), e.pos)
		if e.via != "" {
			step += " (via " + e.via + ")"
		}
		parts = append(parts, step)
	}
	pass.diags = append(pass.diags, Diagnostic{
		Pos:      firstPos,
		Message:  fmt.Sprintf("lock order cycle (potential deadlock): %s; break the cycle or annotate one site //vx:lockorder <why>", strings.Join(parts, "; ")),
		Analyzer: pass.Analyzer.Name,
	})
}
