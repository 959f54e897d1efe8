package analysis

// A small forward dataflow engine over the call graph. Facts flow from
// callees toward callers ("what can this call do to me?"), which is the
// direction lockorder's may-acquire-these-locks fact needs. An analyzer
// instantiates FlowProblem with its own lattice element F and Solve
// iterates to a fixed point with a worklist; monotone Seed/Transfer
// guarantee termination because F is a finite powerset lattice.

// A FlowProblem defines one monotone dataflow problem over a Program's
// call graph.
type FlowProblem[F any] struct {
	// Seed computes a node's local fact from its own body alone.
	Seed func(n *FuncNode) F
	// Transfer folds one outgoing call's callee fact into the node's
	// accumulating fact, returning the new fact. It is called once per
	// call edge, on every worklist visit, after Seed. Transfer must be
	// monotone in both arguments.
	Transfer func(n *FuncNode, acc F, call *Call, callee F) F
	// Equal reports lattice-element equality; the fixpoint has converged
	// when no node's fact changes.
	Equal func(a, b F) bool
}

// Solve runs the problem to a fixed point and returns every node's fact.
func Solve[F any](p *Program, prob FlowProblem[F]) map[*FuncNode]F {
	facts := make(map[*FuncNode]F, len(p.Nodes))
	eval := func(n *FuncNode) F {
		acc := prob.Seed(n)
		for _, c := range n.Calls {
			acc = prob.Transfer(n, acc, c, facts[c.Callee])
		}
		return acc
	}
	// Initialize in reverse declaration order so leaf-ward facts tend to
	// exist before their callers evaluate, then iterate to convergence.
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		n := p.Nodes[i]
		facts[n] = eval(n)
	}
	work := append([]*FuncNode(nil), p.Nodes...)
	queued := make(map[*FuncNode]bool, len(work))
	for _, n := range work {
		queued[n] = true
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		queued[n] = false
		next := eval(n)
		if prob.Equal(next, facts[n]) {
			continue
		}
		facts[n] = next
		for _, caller := range p.Callers(n) {
			if !queued[caller] {
				queued[caller] = true
				work = append(work, caller)
			}
		}
	}
	return facts
}
