package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/skeleton"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
	"vxml/internal/xq"
)

// Eval runs the plan and constructs the vectorized result (S', V'): the
// output skeleton is built with stepwise hash-consing per tuple (subtrees
// shared as they repeat) and output vectors are populated by positional
// copies from input vectors — the input skeleton is never decompressed.
//
// Eval is safe to call concurrently: all mutable evaluation state lives in
// a per-call context, and the shared engine caches are locked.
//
// Cancelling ctx makes Eval return ctx.Err() promptly (cancellation is
// observed between operations, every few thousand scanned values, and
// between result tuples). A cancelled Eval leaves the engine fully
// reusable: all abandoned state was owned by this call alone.
func (e *Engine) Eval(ctx context.Context, plan *qgraph.Plan) (*vectorize.MemRepository, error) {
	repo, _, err := e.EvalTraced(ctx, plan)
	return repo, err
}

// evalInto runs the plan in a fresh evaluation context, appending
// output values to out and returning the result skeleton and the
// evaluation's per-op Trace: every plan op and the final
// result-emission phase record wall time and counter deltas into it. The
// trace comes back on error too, holding the ops that completed and the
// counters so far. Process-wide obs totals are published from its Total.
//
// It is also the query-scoped telemetry choke point — every evaluation
// (Eval, EvalTraced) funnels through here: a TaskMeter is
// attached to the context (unless the caller brought its own), the
// evaluation registers in obs.ActiveQueries with a cancel func (so
// /debug/queries can list and cooperatively cancel it through the
// engine's existing ctx-poll machinery). What a finished query is kept
// for (slow, failed, sampled) is the serving layer's call, not this one's.
func (e *Engine) evalInto(ctx context.Context, plan *qgraph.Plan, out *vector.MemSet) (skel *skeleton.Skeleton, trace *Trace, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	meter := obs.MeterFrom(ctx)
	if meter == nil {
		meter = &obs.TaskMeter{}
		ctx = obs.WithMeter(ctx, meter)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Rendering plan.String() costs more than the whole telemetry layer,
	// so the fallback label is lazy: it stringifies only when the query
	// is actually listed.
	var label func() string
	if text := meter.Query; text != "" {
		label = func() string { return text }
	} else {
		label = sync.OnceValue(func() string {
			return strings.Join(strings.Fields(plan.String()), " ")
		})
	}
	regID := obs.ActiveQueries.Register(label, meter, cancel)
	x := newEvalContext(e, ctx)
	trace = x.trace
	defer x.closeReaders()
	defer func() {
		x.fold()
		trace.Wall = time.Since(start)
		trace.Total = meter.Counters().Sub(x.base)
		publishObs(trace.Total, trace.Wall, err)
		obs.ActiveQueries.Finish(regID)
	}()
	// Panic isolation: a panic anywhere in this evaluation dies HERE, as a
	// typed *PanicError on this query alone — the process and every other
	// in-flight query survive. Declared after the telemetry defer so LIFO
	// runs it first: by the time the telemetry defer publishes, err already
	// holds the converted panic.
	defer func() {
		//vx:recover-boundary the engine's sanctioned eval recover choke point
		r := recover()
		if r == nil {
			return
		}
		skel = nil
		err = &PanicError{Value: r, Stack: debug.Stack()}
		obsQueryPanics.Inc()
	}()
	if sc := e.CheckPlan(plan); sc.Empty {
		// Statically unsatisfiable: some path edge matches no catalog
		// path, so the result is a bare root — emitted here without
		// running a single op or opening a single vector.
		obsStaticEmpty.Inc()
		x.stats.StaticEmpty++
		trace.Static = sc
		b := skeleton.NewBuilder()
		return b.Finish(b.Make(e.Syms.Intern(plan.ResultTag), nil)), trace, nil
	}
	if err = x.run(plan); err != nil {
		return nil, trace, err
	}
	b := skeleton.NewBuilder()
	rb := &resultBuilder{
		x:       x,
		builder: b,
		out:     out,
		imports: skeleton.NewImporter(b, e.Skel, nil, nil),
		targets: make(map[returnPath][]skeleton.ClassID),
	}
	rb.appendOut = rb.appendValue
	if err = rb.emitAll(plan); err != nil {
		return nil, trace, err
	}
	root := rb.builder.Make(e.Syms.Intern(plan.ResultTag), rb.rootEdges)
	skel = rb.builder.Finish(root)
	x.endOp(plan, len(plan.Ops), "emit")
	return skel, trace, nil
}

// resultBuilder holds result-construction state for one evaluation.
type resultBuilder struct {
	x         *evalContext
	builder   *skeleton.Builder
	out       *vector.MemSet
	rootEdges []skeleton.Edge
	edges     []skeleton.Edge                   // scratch: one return item's edges
	imports   *skeleton.Importer                // input subtrees into builder, memoized across tuples
	targets   map[returnPath][]skeleton.ClassID // resolved return paths

	// classes is indexed by input ClassID, allocated by the first copy and
	// filled lazily for the classes the copies reach.
	classes []classMemo
	// path is the output path of the class being walked; outVec is the
	// output vector named outName, which the current scan appends to
	// through appendOut (the appendValue method value, bound once).
	path      []byte
	outName   string
	outVec    *vector.Mem
	appendOut func(pos int64, val []byte) error
}

// returnPath identifies a return item's path from one class: the plan's
// step slice, by its first element, stands for the path.
type returnPath struct {
	class skeleton.ClassID
	steps *xq.Step
}

// classMemo is the per-query state of one input class.
type classMemo struct {
	cursor *skeleton.Cursor     // parent-class occurrences -> this class's
	nodes  *skeleton.NodeCursor // DAG node of each occurrence (copied classes)
	name   string               // last output vector name (text classes)
	reader *reader              // the evaluation's reader of the class's vector
}

// binding is one output variable's instance in a tuple.
type binding struct {
	class skeleton.ClassID
	occ   int64
}

// emitAll enumerates the final tuples (cartesian across surviving tables,
// expanding runs and multiplicities) and expands the result template per
// tuple.
// Every returned subtree is copied from here, and
// TestEmitAllocsPerTuple pins its allocations per tuple.
func (rb *resultBuilder) emitAll(plan *qgraph.Plan) error {
	x := rb.x
	// Surviving tables in creation order; nil slots were merged away.
	tables := make([]*Table, 0, len(x.tables))
	for _, t := range x.tables {
		if t != nil {
			tables = append(tables, t)
		}
	}
	prefix := "/" + plan.ResultTag
	tuple := make(map[string]binding)
	var rec func(ti int, mult int64) error
	rec = func(ti int, mult int64) error {
		if mult == 0 {
			return nil
		}
		if ti == len(tables) {
			// Result construction can dominate wide queries; observe
			// cancellation, and show the meter the tuples so far,
			// between tuples. The last op's fold left the count at 0.
			if x.stats.Tuples += mult; x.stats.Tuples >= cancelCheckStride {
				x.fold()
				if err := x.ctx.Err(); err != nil {
					return err
				}
			}
			return rb.emitTuple(plan, tuple, mult, prefix)
		}
		t := tables[ti]
		last := len(t.Classes) - 1
		for _, r := range t.Rows {
			n := r.Run
			if last < 0 {
				n = 1
			}
			for i := int64(0); i < n; i++ {
				for c := range t.Classes {
					v := r.Occ[c]
					if c == last {
						v += i
					}
					cls, occ := t.at(c, v)
					tuple[t.Vars[c]] = binding{cls, occ}
				}
				if err := rec(ti+1, mult*r.Mult); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return rec(0, 1)
}

// emitTuple expands the return template once per multiplicity.
func (rb *resultBuilder) emitTuple(plan *qgraph.Plan, tuple map[string]binding, mult int64, prefix string) error {
	for m := int64(0); m < mult; m++ {
		for _, item := range plan.Return {
			var err error
			if rb.edges, err = rb.emitItem(rb.edges[:0], item, tuple, prefix); err != nil {
				return err
			}
			for _, ed := range rb.edges {
				rb.appendRootEdge(ed)
			}
		}
	}
	return nil
}

func (rb *resultBuilder) appendRootEdge(ed skeleton.Edge) {
	if n := len(rb.rootEdges); n > 0 && rb.rootEdges[n-1].Child == ed.Child {
		rb.rootEdges[n-1].Count += ed.Count
		return
	}
	rb.rootEdges = append(rb.rootEdges, ed)
}

// emitItem renders one return item as child edges under prefix (the output
// path of the containing element), appended to edges, and appends any text
// values to the corresponding output vectors.
func (rb *resultBuilder) emitItem(edges []skeleton.Edge, item xq.RetItem, tuple map[string]binding, prefix string) ([]skeleton.Edge, error) {
	switch item := item.(type) {
	case xq.RetText:
		rb.out.Add(prefix).Append(item.Text)
		return append(edges, skeleton.Edge{Child: rb.builder.Text(), Count: 1}), nil
	case xq.RetElem:
		myPrefix := prefix + "/" + item.Tag
		kids := make([]skeleton.Edge, 0, len(item.Kids))
		for _, k := range item.Kids {
			var err error
			if kids, err = rb.emitItem(kids, k, tuple, myPrefix); err != nil {
				return nil, err
			}
		}
		n := rb.builder.Make(rb.x.e.Syms.Intern(item.Tag), kids)
		return append(edges, skeleton.Edge{Child: n, Count: 1}), nil
	case xq.RetPath:
		return rb.emitPath(edges, item.Term, tuple, prefix)
	}
	return nil, fmt.Errorf("core: unknown return item %T", item)
}

// emitPath copies, for the tuple's binding of the term's variable, every
// subtree reachable via the term's path: per target class, the binding's
// descendants there are one contiguous run, copied in one go.
func (rb *resultBuilder) emitPath(edges []skeleton.Edge, term xq.PathTerm, tuple map[string]binding, prefix string) ([]skeleton.Edge, error) {
	b, ok := tuple[term.Var]
	if !ok {
		return nil, fmt.Errorf("core: tuple missing %s", term.Var)
	}
	if len(term.Path.Steps) == 0 {
		return rb.copyRun(edges, b.class, b.occ, 1, prefix)
	}
	key := returnPath{b.class, &term.Path.Steps[0]}
	targets, ok := rb.targets[key]
	if !ok {
		targets = rb.x.e.resolveTargets(b.class, term.Path.Steps)
		rb.targets[key] = targets
	}
	for _, dst := range targets {
		start, count := rb.descend(b.class, dst, b.occ)
		if count == 0 {
			continue
		}
		var err error
		if edges, err = rb.copyRun(edges, dst, start, count, prefix); err != nil {
			return nil, err
		}
	}
	return edges, nil
}

// memo returns the per-query state of class c, allocating the table on
// first use.
func (rb *resultBuilder) memo(c skeleton.ClassID) *classMemo {
	if rb.classes == nil {
		rb.classes = make([]classMemo, rb.x.e.Classes.NumClasses())
	}
	return &rb.classes[c]
}

// cursor returns the shared run-map cursor of class c (c is not the root).
func (rb *resultBuilder) cursor(c skeleton.ClassID) *skeleton.Cursor {
	m := rb.memo(c)
	if m.cursor == nil {
		m.cursor = rb.x.e.Classes.Cursor(c)
	}
	return m.cursor
}

// descend maps occurrence occ of class src to the span of its
// descendants at class dst, which lies below src: one ChildSpan per class
// on the way down.
func (rb *resultBuilder) descend(src, dst skeleton.ClassID, occ int64) (start, count int64) {
	if dst == src {
		return occ, 1
	}
	start, count = rb.descend(src, rb.x.e.Classes.Parent(dst), occ)
	if count == 0 {
		return 0, 0
	}
	return rb.cursor(dst).ChildSpan(start, count)
}

// copyRun copies occurrences [start, start+count) of class into the
// output under prefix. Consecutive occurrences that are instances of one
// DAG node become one counted edge to the imported node (hash-consing
// shares repeats — stepwise compression), and every text class below gets
// its slice of the run in one Scan (copyTexts).
func (rb *resultBuilder) copyRun(edges []skeleton.Edge, class skeleton.ClassID, start, count int64, prefix string) ([]skeleton.Edge, error) {
	e := rb.x.e
	m := rb.memo(class)
	if m.nodes == nil {
		m.nodes = skeleton.NewNodeCursor(e.Classes.NodeRuns(class))
	}
	end := start + count
	for occ := start; occ < end; {
		node := m.nodes.At(occ)
		n := int64(1)
		for occ+n < end && m.nodes.At(occ+n) == node {
			n++
		}
		edges = append(edges, skeleton.Edge{Child: rb.imports.Import(node), Count: n})
		occ += n
	}
	rb.path = append(append(append(rb.path[:0], prefix...), '/'), e.Syms.Name(e.Classes.Tag(class))...)
	return edges, rb.copyTexts(class, start, count)
}

// copyTexts appends the values of every text class below class, for the
// class's occurrences [start, start+count), to the output vectors named
// by the output path rb.path of class. It walks the class trie top-down
// carrying the span: one ChildSpan per trie edge, a sub-trie the span
// does not reach is skipped whole, and each reached text class gets one
// Scan for the whole span — so the cost follows the classes the run
// actually reaches, not every class below it.
func (rb *resultBuilder) copyTexts(class skeleton.ClassID, start, count int64) error {
	e := rb.x.e
	n := len(rb.path)
	for _, kid := range e.Classes.Kids(class) {
		s, k := rb.cursor(kid).ChildSpan(start, count)
		if k == 0 {
			continue
		}
		var err error
		if e.Classes.IsText(kid) {
			err = rb.scanText(kid, s, k)
		} else {
			rb.path = append(append(rb.path, '/'), e.Syms.Name(e.Classes.Tag(kid))...)
			err = rb.copyTexts(kid, s, k)
			rb.path = rb.path[:n]
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// scanText appends positions [start, start+count) of a text class's vector
// to the output vector named rb.path. The name string is kept per class
// and rebuilt only when the path differs (another return item or target).
// It reads through the evaluation's reader of the vector: tuples come in
// document order, so its scans resume where the previous one — or the
// op that read the vector last — stopped.
func (rb *resultBuilder) scanText(text skeleton.ClassID, start, count int64) error {
	m := rb.memo(text)
	if m.reader == nil {
		var err error
		if m.reader, err = rb.x.readerFor(text); err != nil {
			return err
		}
	}
	if m.name != string(rb.path) {
		m.name = string(rb.path)
	}
	if rb.outVec == nil || rb.outName != m.name {
		rb.outName, rb.outVec = m.name, rb.out.Add(m.name)
	}
	rb.x.stats.ValuesScanned += count
	return m.reader.Scan(start, count, rb.appendOut)
}

// appendValue is the scan callback of scanText. The val passed down
// aliases a pinned buffer-pool frame (Vector.Scan contract); the string
// conversion copies it before the frame is unpinned.
func (rb *resultBuilder) appendValue(_ int64, val []byte) error {
	rb.outVec.Append(string(val))
	return nil
}
