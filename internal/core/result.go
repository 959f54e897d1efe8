package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/skeleton"
	"vxml/internal/storage"
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
// observed between operations, between parallel scan tasks, every few
// thousand scanned values, and between result tuples). A cancelled Eval
// leaves the engine fully reusable: all abandoned state was owned by this
// call alone.
func (e *Engine) Eval(ctx context.Context, plan *qgraph.Plan) (*vectorize.MemRepository, error) {
	out := vector.NewMemSet()
	skel, err := e.evalWithSink(ctx, plan, vectorize.MemSink{Set: out})
	if err != nil {
		return nil, err
	}
	return &vectorize.MemRepository{
		Syms:    e.Syms,
		Skel:    skel,
		Classes: skeleton.NewClasses(skel, e.Syms),
		Vectors: out,
	}, nil
}

// EvalToDir evaluates the plan and stores the result as an on-disk
// repository at dir — query results stay in the same vectorized form as
// inputs, so pipelines compose on disk.
//
// The build is crash-safe the same way vectorize.Create is: the result is
// written into dir+".building", fully committed (fsynced vector segment,
// checksummed directory and skeleton, manifest) and renamed into place as
// the last step. A crash or a cancelled ctx leaves either no result directory or a
// complete one.
//
//vx:fault-classified materialization API: a failed result build removes the .building dir and surfaces raw to the pipeline driver
func (e *Engine) EvalToDir(ctx context.Context, plan *qgraph.Plan, dir string, poolPages int) (*vectorize.Repository, error) {
	fsys := storage.DefaultFS
	building := dir + ".building"
	if err := fsys.RemoveAll(building); err != nil {
		return nil, fmt.Errorf("core: clear stale build dir: %w", err)
	}
	store, err := storage.OpenStoreFS(fsys, building, poolPages)
	if err != nil {
		return nil, err
	}
	sink, err := vectorize.NewStoreSink(store, false)
	if err != nil {
		store.Close()
		return nil, err
	}
	skel, err := e.evalWithSink(ctx, plan, sink)
	if err != nil {
		store.Close()
		return nil, err
	}
	if err := sink.Close(); err != nil {
		store.Close()
		return nil, err
	}
	if err := vectorize.CommitStore(store, skel, e.Syms, sink.Set); err != nil {
		store.Close()
		return nil, err
	}
	if err := store.Close(); err != nil {
		return nil, err
	}
	if err := vectorize.PromoteBuild(fsys, building, dir); err != nil {
		return nil, err
	}
	return vectorize.Open(dir, vectorize.Options{PoolPages: poolPages})
}

// evalWithSink runs the plan in a fresh evaluation context, streaming
// output values to sink and returning the result skeleton. The context's
// final counters are published as the engine's Stats snapshot (also on
// error, so a failed query still reports what it touched).
func (e *Engine) evalWithSink(ctx context.Context, plan *qgraph.Plan, sink vectorize.Sink) (*skeleton.Skeleton, error) {
	return e.evalWithSinkTraced(ctx, plan, sink, nil)
}

// evalWithSinkTraced is evalWithSink with optional per-op tracing: when
// trace is non-nil every plan op and the final result-emission phase
// record wall time and counter deltas into it. Process-wide obs totals
// are published either way.
//
// It is also the query-scoped telemetry choke point — every evaluation
// (Eval, EvalTraced, EvalToDir) funnels through here: a TaskMeter is
// attached to the context (unless the caller brought its own), the
// evaluation registers in obs.ActiveQueries with a cancel func (so
// /debug/queries can list and cooperatively cancel it through the
// engine's existing ctx-poll machinery), and on completion queries over
// the slow thresholds are captured into obs.SlowQueries.
func (e *Engine) evalWithSinkTraced(ctx context.Context, plan *qgraph.Plan, sink vectorize.Sink, trace *Trace) (skel *skeleton.Skeleton, err error) {
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
	// is actually listed or slow-captured.
	var label func() string
	if text := obs.QueryTextFrom(ctx); text != "" {
		label = func() string { return text }
	} else {
		label = sync.OnceValue(func() string {
			return strings.Join(strings.Fields(plan.String()), " ")
		})
	}
	regID := obs.ActiveQueries.Register(label, meter, cancel)
	x := newEvalContext(e, ctx)
	x.trace = trace
	defer x.closeReaders()
	defer func() {
		e.setStats(x.stats)
		wall := time.Since(start)
		if trace != nil {
			trace.Wall = wall
			trace.Total = x.stats
		}
		publishObs(x.stats, wall, err)
		obs.ActiveQueries.Finish(regID)
		if obs.SlowQueries.ShouldCapture(wall, meter.PagesFaulted()) {
			rec := obs.SlowQueryRecord{
				ID:       regID,
				Query:    label(),
				Start:    start,
				WallUS:   wall.Microseconds(),
				Counters: meter.Counters(),
			}
			if err != nil {
				rec.Error = err.Error()
			}
			if trace != nil {
				rec.Trace = trace.Redacted()
			}
			rec.TraceID = obs.SpanFrom(ctx).TraceID()
			obs.SlowQueries.Record(rec)
		}
	}()
	// Panic isolation: a panic anywhere in this evaluation dies HERE, as a
	// typed *PanicError on this query alone — the process and every other
	// in-flight query survive. Declared after the telemetry defer so LIFO
	// runs it first: by the time the telemetry defer publishes, err already
	// holds the converted panic. Worker-goroutine panics arrive as an
	// already-converted *PanicError in err (see parallelFor) and are
	// recorded on the same terms.
	defer func() {
		var pe *PanicError
		//vx:recover-boundary the engine's sanctioned eval recover choke point
		if r := recover(); r != nil {
			stack := debug.Stack()
			pe = &PanicError{Value: r, Stack: stack}
			skel = nil
			err = pe
		} else if !errors.As(err, &pe) {
			return
		}
		obsQueryPanics.Inc()
		var q string
		if label != nil {
			q = label()
		} else if text := obs.QueryTextFrom(ctx); text != "" {
			q = text
		}
		obs.Panics.Record(obs.PanicRecord{
			Query: q,
			Time:  start,
			Value: fmt.Sprint(pe.Value),
			Stack: string(pe.Stack),
		})
	}()
	if sc := e.CheckPlan(plan); sc.Empty {
		// Statically unsatisfiable: some path edge matches no catalog
		// path, so the result is a bare root — emitted here without
		// running a single op or opening a single vector.
		obsStaticEmpty.Inc()
		x.meter.StaticEmpty()
		if trace != nil {
			trace.Static = sc
		}
		b := skeleton.NewBuilder()
		return b.Finish(b.Make(e.Syms.Intern(plan.ResultTag), nil)), nil
	}
	if err = x.run(plan); err != nil {
		return nil, err
	}
	rb := &resultBuilder{
		x:       x,
		builder: skeleton.NewBuilder(),
		out:     sink,
		imports: make(map[*skeleton.Node]*skeleton.Node),
		targets: make(map[returnPath][]skeleton.ClassID),
	}
	rb.appendOut = rb.appendValue
	var emitStart time.Time
	var before EvalStats
	if trace != nil {
		emitStart, before = time.Now(), x.stats
	}
	if err = rb.emitAll(plan); err != nil {
		return nil, err
	}
	root := rb.builder.Make(e.Syms.Intern(plan.ResultTag), rb.rootEdges)
	skel = rb.builder.Finish(root)
	if trace != nil {
		trace.Ops = append(trace.Ops, OpTrace{
			Op:       "emit " + plan.ResultTag,
			Kind:     "emit",
			Wall:     time.Since(emitStart),
			Stats:    x.stats.delta(before),
			LiveRows: x.liveRows(),
		})
	}
	return skel, nil
}

// resultBuilder holds result-construction state for one evaluation.
type resultBuilder struct {
	x         *evalContext
	builder   *skeleton.Builder
	out       vectorize.Sink
	rootEdges []skeleton.Edge
	edges     []skeleton.Edge // scratch: one return item's edges
	imports   map[*skeleton.Node]*skeleton.Node
	targets   map[returnPath][]skeleton.ClassID // resolved return paths

	// classes is indexed by input ClassID, allocated by the first copy and
	// filled lazily for the classes the copies reach.
	classes []classMemo
	// path is the output path of the class being walked; outName is the
	// output vector the current scan appends to, through appendOut (the
	// appendValue method value, bound once).
	path      []byte
	outName   string
	appendOut func(pos int64, val []byte) error

	lastCtxCheck int64 // Tuples count at the last cancellation check
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
//
//vx:hot result construction: every returned subtree is copied from here
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
			x.stats.Tuples += mult
			x.meter.Tuples(mult)
			// Result construction can dominate wide queries; observe
			// cancellation between tuples.
			if x.stats.Tuples-rb.lastCtxCheck >= cancelCheckStride {
				rb.lastCtxCheck = x.stats.Tuples
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
		if err := rb.out.Append(prefix, []byte(item.Text)); err != nil {
			return nil, err
		}
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
		edges = append(edges, skeleton.Edge{Child: rb.importNode(node), Count: n})
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
	rb.outName = m.name
	rb.x.stats.ValuesScanned += count
	return m.reader.Scan(start, count, rb.appendOut)
}

// appendValue is the scan callback of scanText. The val passed down
// aliases a pinned buffer-pool frame (Vector.Scan contract); Sink.Append
// is required to copy before returning, so the value is safe once the
// callback ends and the frame is unpinned.
func (rb *resultBuilder) appendValue(_ int64, val []byte) error {
	return rb.out.Append(rb.outName, val)
}

// importNode rehashes an input skeleton node into the output builder with
// a persistent memo (sharing across tuples).
func (rb *resultBuilder) importNode(n *skeleton.Node) *skeleton.Node {
	if m, ok := rb.imports[n]; ok {
		return m
	}
	var m *skeleton.Node
	if n.IsText {
		m = rb.builder.Text()
	} else {
		edges := make([]skeleton.Edge, len(n.Edges))
		for i, ed := range n.Edges {
			edges[i] = skeleton.Edge{Child: rb.importNode(ed.Child), Count: ed.Count}
		}
		m = rb.builder.Make(n.Tag, edges)
	}
	rb.imports[n] = m
	return m
}
