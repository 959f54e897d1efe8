package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/skeleton"
	"vxml/internal/storage"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// Options toggles the engine's optimizations; each toggle is an ablation
// measured by the benchmark harness.
type Options struct {
	// NoRunCompression expands every run eagerly, disabling the extended-
	// vector cardinality compaction (§4.2). Regular data degrades from
	// O(skeleton) to O(document) for structure-only steps.
	NoRunCompression bool
	// FilterOnlyJoins evaluates cross-table joins the way §4.2 literally
	// describes — as pure cardinality filters on both sides, pairing by
	// common ancestor (cartesian) at grouping time. This is cheaper but
	// over-produces pairs when value matches do not align; the default
	// merges the tables with true pairing.
	FilterOnlyJoins bool
	// Workers bounds the intra-query parallelism of the vector-scanning
	// operations (selections and join value gathering): row scans fan out
	// across this many goroutines and merge deterministically, so results
	// are byte-identical to serial evaluation. <= 0 means GOMAXPROCS;
	// 1 disables the fan-out.
	Workers int
}

// EvalStats reports what a query evaluation touched. Counters are owned
// by one evalContext; parallel scan fan-outs accumulate into per-chunk
// slots that merge in chunk order, so the totals equal a serial run.
type EvalStats struct {
	VectorsOpened int   // distinct data vectors loaded (lazy loading)
	ValuesScanned int64 // vector values read across all operations
	RowsProduced  int64 // instantiation rows created by reduce steps
	Tuples        int64 // final value tuples passed to the result skeleton
	RunsExpanded  int64 // rows materialized by expanding run-compressed rows
	IndexHits     int64 // predicates served from a VectorIndex instead of a scan
	MemoHits      int64 // target/span/chain resolutions answered from engine memos
}

// add accumulates another stats snapshot (used to total per-op deltas).
func (s *EvalStats) add(d EvalStats) {
	s.VectorsOpened += d.VectorsOpened
	s.ValuesScanned += d.ValuesScanned
	s.RowsProduced += d.RowsProduced
	s.Tuples += d.Tuples
	s.RunsExpanded += d.RunsExpanded
	s.IndexHits += d.IndexHits
	s.MemoHits += d.MemoHits
}

// delta returns s - prev, field-wise.
func (s EvalStats) delta(prev EvalStats) EvalStats {
	return EvalStats{
		VectorsOpened: s.VectorsOpened - prev.VectorsOpened,
		ValuesScanned: s.ValuesScanned - prev.ValuesScanned,
		RowsProduced:  s.RowsProduced - prev.RowsProduced,
		Tuples:        s.Tuples - prev.Tuples,
		RunsExpanded:  s.RunsExpanded - prev.RunsExpanded,
		IndexHits:     s.IndexHits - prev.IndexHits,
		MemoHits:      s.MemoHits - prev.MemoHits,
	}
}

// Engine evaluates plans over one vectorized document.
//
// An Engine is safe for concurrent use: every Eval/EvalToDir call builds
// its own evalContext holding all mutable per-evaluation state (stats,
// lazily opened vectors, instantiation tables), while the engine itself
// keeps only immutable inputs plus mutex-guarded caches that are pure
// functions of the skeleton (target/span/chain memos, value indexes).
// Build indexes with BuildVectorIndex before serving queries when
// possible; concurrent builds are safe but serialize.
type Engine struct {
	Skel    *skeleton.Skeleton
	Classes *skeleton.Classes
	Vectors vector.Set
	Syms    *xmlmodel.Symbols
	Opts    Options

	// Health is the owning repository's quarantine table; queries touching
	// a quarantined vector fail fast with ErrQuarantined, and scans that
	// observe persistent corruption add to it. Nil (ad-hoc engines, memory
	// repositories) disables both — every storage.Health method is
	// nil-safe.
	Health *storage.Health

	memoMu     sync.Mutex                                 // guards the skeleton-derived memos below
	targetMemo map[string][]skeleton.ClassID              // guarded by memoMu
	spanMemo   map[[2]skeleton.ClassID][]span             // guarded by memoMu
	chainMemo  map[[2]skeleton.ClassID][]*skeleton.Cursor // guarded by memoMu

	idxMu   sync.RWMutex                      // guards indexes
	indexes map[skeleton.ClassID]*VectorIndex // guarded by idxMu

	statsMu   sync.Mutex
	lastStats EvalStats // guarded by statsMu
}

// NewEngine returns an engine over a vectorized document.
func NewEngine(skel *skeleton.Skeleton, cls *skeleton.Classes, vecs vector.Set, syms *xmlmodel.Symbols, opts Options) *Engine {
	return &Engine{Skel: skel, Classes: cls, Vectors: vecs, Syms: syms, Opts: opts}
}

// NewRepoEngine returns a fresh engine over an opened on-disk repository —
// the engine-per-query serving helper. Many engines may share one
// Repository concurrently; per-query engines additionally isolate index
// builds and statistics.
func NewRepoEngine(r *vectorize.Repository, opts Options) *Engine {
	e := NewEngine(r.Skel, r.Classes, r.Vectors, r.Syms, opts)
	e.Health = r.Health
	return e
}

// NewMemEngine returns a fresh engine over an in-memory repository.
func NewMemEngine(r *vectorize.MemRepository, opts Options) *Engine {
	return NewEngine(r.Skel, r.Classes, r.Vectors, r.Syms, opts)
}

// Stats returns the counters of the most recently completed Eval (any
// evaluation, when several run concurrently).
func (e *Engine) Stats() EvalStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.lastStats
}

func (e *Engine) setStats(s EvalStats) {
	e.statsMu.Lock()
	e.lastStats = s
	e.statsMu.Unlock()
}

// evalContext is the mutable state of one evaluation. Each Eval call owns
// exactly one; it is single-goroutine except where the parallel scan
// helpers fan row ranges out (those touch only disjoint per-task state and
// merge results deterministically afterwards).
type evalContext struct {
	e     *Engine
	ctx   context.Context
	stats EvalStats
	trace *Trace         // nil unless this evaluation is being traced
	meter *obs.TaskMeter // per-query attribution; nil-safe, may be nil

	vecs    map[skeleton.ClassID]vector.Vector // text class -> opened vector
	tables  []*Table
	varTabs map[string]int // var -> index into tables
}

func newEvalContext(e *Engine, ctx context.Context) *evalContext {
	if ctx == nil {
		ctx = context.Background()
	}
	return &evalContext{
		e:       e,
		ctx:     ctx,
		meter:   obs.MeterFrom(ctx),
		vecs:    make(map[skeleton.ClassID]vector.Vector),
		varTabs: make(map[string]int),
	}
}

// taskTelemetry gates the query-scoped telemetry layer (TaskMeter
// creation and active-query registration). It exists only so the
// benchmark harness can measure the layer's cost against the trace
// budget; production code never turns it off.
var taskTelemetry atomic.Bool

func init() { taskTelemetry.Store(true) }

// SetTaskTelemetry toggles per-query TaskMeter attribution and
// active-query registration, returning the previous setting. Benchmark
// ablation only.
func SetTaskTelemetry(on bool) bool {
	prev := taskTelemetry.Load()
	taskTelemetry.Store(on)
	return prev
}

// vectorFor lazily opens the data vector of a text class, as the view
// that charges page faults to the query's meter and honors its context
// during transient-read retry. It is called from the serial part of every
// operation (never inside a scan fan-out), so the per-evaluation cache
// needs no lock. Values are read through newReader, never from the view
// directly.
//
//vx:rawvector the one open every reader (and so every cancel poll) is built on
func (x *evalContext) vectorFor(c skeleton.ClassID) (vector.Vector, error) {
	if v, ok := x.vecs[c]; ok {
		return v, nil
	}
	e := x.e
	name := e.Classes.VectorName(c)
	if reason, ok := e.Health.Quarantined(name); ok {
		// Fail fast before any I/O: the bad page stays untouched until an
		// operator re-verify clears the quarantine.
		obsQuarantinedQueries.Inc()
		obs.SpanFrom(x.ctx).Event(evQuarantine, obs.Str("vector", name), obs.Str("error", "already quarantined: "+reason))
		return nil, &QuarantinedError{Vector: name, Reason: reason}
	}
	v, err := vector.OpenFrom(x.ctx, x.meter, e.Vectors, name)
	if err != nil {
		if errors.Is(err, storage.ErrCorrupt) {
			// The open itself hit persistent corruption (bad meta page, count
			// mismatch) — quarantine on the same terms as a scan failure.
			e.Health.Quarantine(name, err.Error())
		}
		return nil, err
	}
	if mv, ok := v.(vector.Meterable); ok && x.meter != nil {
		v = mv.Metered(x.meter)
	}
	if x.ctx.Done() != nil {
		if cv, ok := v.(vector.Contextual); ok {
			v = cv.WithContext(x.ctx)
		}
	}
	x.vecs[c] = v
	x.stats.VectorsOpened++
	x.meter.VectorOpen()
	return v, nil
}

// cancelCheckStride is how many scanned values may pass between context
// checks: frequent enough for prompt cancellation, rare enough that the
// check cost vanishes against value processing.
const cancelCheckStride = 4096

// reader is how the engine reads a text class's vector: a vector.Cursor
// for one goroutine, so a pass over rows in document order resumes each
// scan where the last one stopped. It is also the one choke point for
// the two things every scan must do:
//
//   - observe cancellation within cancelCheckStride values: each scan is
//     sliced into stride-sized sub-scans with a context check between
//     them, so fn passes through unwrapped and cancellability costs
//     nothing per value (a per-value counting closure once cost ~8 % on
//     scan-bound queries), and the sub-scans resume on the cursor's page;
//   - quarantine the vector when a scan observes persistent corruption
//     (see quarantine).
type reader struct {
	cur   vector.Cursor
	x     *evalContext
	class skeleton.ClassID
}

// newReader returns a reader over v, text class c's vector as vectorFor
// opened it. Readers are single-goroutine: a scan fan-out makes one per
// chunk, on the chunk's stack. Close it when done.
func (x *evalContext) newReader(c skeleton.ClassID, v vector.Vector) reader {
	return reader{cur: vector.NewCursor(v), x: x, class: c}
}

// Close releases the reader's cursor.
func (r *reader) Close() { r.cur.Close() }

// Scan reads positions [start, start+n) like Vector.Scan, polling the
// evaluation's context between sub-scans.
//
//vx:hot every value a query touches flows through this scan loop
func (r *reader) Scan(start, n int64, fn func(pos int64, val []byte) error) error {
	if start < 0 || n < 0 || start+n > r.cur.Len() {
		// Out-of-range scans surface the vector's own error before fn
		// observes any value.
		return r.cur.Scan(start, n, fn)
	}
	for off := int64(0); ; off += cancelCheckStride {
		if err := r.x.ctx.Err(); err != nil {
			return err
		}
		chunk := n - off
		if chunk <= 0 {
			return nil
		}
		if chunk > cancelCheckStride {
			chunk = cancelCheckStride
		}
		if err := r.cur.Scan(start+off, chunk, fn); err != nil {
			r.x.quarantine(r.class, err)
			return err
		}
	}
}

func (x *evalContext) tableOf(v string) (*Table, int, error) {
	idx, ok := x.varTabs[v]
	if !ok {
		return nil, -1, fmt.Errorf("core: variable %s has no instantiation", v)
	}
	t := x.tables[idx]
	col := t.Col(v)
	if col < 0 {
		return nil, -1, fmt.Errorf("core: variable %s missing from its table", v)
	}
	return t, col, nil
}

// run executes the plan's operations, leaving final tables in x.tables.
// With tracing enabled, each operation records its wall time and the
// stats counters it moved (including its DropAfter column drops).
func (x *evalContext) run(plan *qgraph.Plan) error {
	output := map[string]bool{}
	for _, v := range plan.OutputVars {
		output[v] = true
	}
	for _, op := range plan.Ops {
		if err := x.ctx.Err(); err != nil {
			return err
		}
		var t0 time.Time
		var before EvalStats
		if x.trace != nil {
			t0, before = time.Now(), x.stats
		}
		var err error
		switch op.Kind {
		case qgraph.OpBind:
			err = x.opBind(op)
		case qgraph.OpProj:
			err = x.opProj(op)
		case qgraph.OpSel:
			err = x.opSel(op)
		case qgraph.OpExists:
			err = x.opExists(op)
		case qgraph.OpJoin:
			err = x.opJoin(op)
		default:
			err = fmt.Errorf("core: unknown op kind %v", op.Kind)
		}
		if err != nil {
			return err
		}
		// Drop dead columns (except the columns an op manages itself:
		// opProj already consumed a dropped source).
		for _, v := range op.DropAfter {
			if idx, ok := x.varTabs[v]; ok {
				t := x.tables[idx]
				if col := t.Col(v); col >= 0 {
					t.dropColumn(col)
				}
				delete(x.varTabs, v)
			}
		}
		if x.e.Opts.NoRunCompression {
			x.expandAll()
		}
		obsOpCount[op.Kind].Inc()
		if x.trace != nil {
			x.trace.Ops = append(x.trace.Ops, OpTrace{
				Op:       op.String(),
				Kind:     op.Kind.String(),
				Wall:     time.Since(t0),
				Stats:    x.stats.delta(before),
				LiveRows: x.liveRows(),
			})
		}
	}
	return nil
}

// liveRows counts instantiation rows across surviving tables (trace only).
func (x *evalContext) liveRows() int64 {
	var n int64
	for _, t := range x.tables {
		if t != nil {
			n += int64(t.NumRows())
		}
	}
	return n
}

func (x *evalContext) expandAll() {
	for _, t := range x.tables {
		if t == nil {
			continue
		}
		for _, s := range t.Segs {
			if len(s.Classes) > 0 {
				x.normalizeSeg(s)
			}
		}
	}
}

// normalizeSeg expands the segment's trailing run column to scalar rows,
// charging the materialized rows to the RunsExpanded counter. All call
// sites are in the serial part of an operation, so plain counter writes
// are race-free.
func (x *evalContext) normalizeSeg(s *Segment) {
	before := len(s.Rows)
	s.normalizeCol(len(s.Classes) - 1)
	x.stats.RunsExpanded += int64(len(s.Rows) - before)
}

// Memo-counting wrappers: the engine-level memos are shared across
// evaluations; these per-eval wrappers record whether this evaluation's
// lookup was answered from the memo.

func (x *evalContext) resolveTargets(src skeleton.ClassID, steps []xq.Step) []skeleton.ClassID {
	out, hit := x.e.resolveTargetsHit(src, steps)
	x.countMemo(hit)
	return out
}

func (x *evalContext) cursorsBetween(src, dst skeleton.ClassID) []*skeleton.Cursor {
	c, hit := x.e.cursorsBetweenHit(src, dst)
	x.countMemo(hit)
	return c
}

func (x *evalContext) nonEmptySpans(src, dst skeleton.ClassID, curs []*skeleton.Cursor) []span {
	s, hit := x.e.nonEmptySpansHit(src, dst, curs)
	x.countMemo(hit)
	return s
}

// countMemo folds one memo lookup into the per-eval stats and meter.
func (x *evalContext) countMemo(hit bool) {
	if hit {
		x.stats.MemoHits++
		x.meter.MemoHit()
	} else {
		x.meter.MemoMiss()
	}
}

// opBind instantiates a variable from the document root.
func (x *evalContext) opBind(op qgraph.Op) error {
	targets := x.e.resolveFromDoc(op.Path)
	t := &Table{Vars: []string{op.Var}}
	for _, c := range targets {
		n := x.e.Classes.Count(c)
		if n == 0 {
			continue
		}
		seg := &Segment{
			Classes: []skeleton.ClassID{c},
			Rows:    []Row{{Occ: []int64{0}, Run: n, Mult: 1}},
		}
		t.Segs = append(t.Segs, seg)
		x.stats.RowsProduced++
	}
	x.tables = append(x.tables, t)
	x.varTabs[op.Var] = len(x.tables) - 1
	return nil
}

// resolveFromDoc resolves a document-rooted path. The first step matches
// against the (virtual document node's only child, the) root element:
// "/bib/book" selects book children of a <bib> root and nothing on any
// other root; "//author" selects author elements anywhere, including the
// root itself if it is named author.
func (e *Engine) resolveFromDoc(steps []xq.Step) []skeleton.ClassID {
	return e.resolveFromDocFunc(steps, e.resolveTargets)
}

// resolveFromDocFunc is resolveFromDoc with the relative-path resolver as a
// parameter: evaluation passes the memoizing resolveTargets, while the
// static checker (CheckPlan) passes resolveTargetsUncached so that checking
// a plan never warms the engine's memo caches — a pre-warmed memo would
// change the MemoHits counters of the evaluation that follows.
func (e *Engine) resolveFromDocFunc(steps []xq.Step, resolve func(skeleton.ClassID, []xq.Step) []skeleton.ClassID) []skeleton.ClassID {
	if len(steps) == 0 {
		return nil
	}
	first, rest := steps[0], steps[1:]
	root := e.Classes.Root()
	rootTag := e.Syms.Name(e.Classes.Tag(root))
	var seeds []skeleton.ClassID
	if first.Axis == xq.Child {
		if first.Name != rootTag && first.Name != "*" {
			return nil
		}
		seeds = []skeleton.ClassID{root}
	} else {
		if first.Name == rootTag || first.Name == "*" {
			seeds = append(seeds, root)
		}
		if first.Name == "*" {
			seeds = append(seeds, e.descendantElements(root)...)
		} else if sym := e.Syms.Lookup(first.Name); sym != xmlmodel.NoSym {
			seeds = append(seeds, e.Classes.Descendants(root, sym)...)
		}
	}
	set := map[skeleton.ClassID]bool{}
	for _, s := range seeds {
		for _, t := range resolve(s, rest) {
			set[t] = true
		}
	}
	out := make([]skeleton.ClassID, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sortClassIDs(out)
	return out
}

func sortClassIDs(s []skeleton.ClassID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// opProj instantiates op.Var from op.Src via op.Path — the projection
// reduce step. Cardinality handling depends on liveness:
//
//   - source live, target live: per-source expansion (pairs materialize);
//   - source dying here: the whole source span maps to the child span,
//     rows stay run-compressed;
//   - target dead (a bound variable never used again): multiplicities
//     multiply by the fanout, rows with no match are filtered out.
func (x *evalContext) opProj(op qgraph.Op) error {
	t, srcCol, err := x.tableOf(op.Src)
	if err != nil {
		return err
	}
	srcDies := contains(op.DropAfter, op.Src)
	targetDead := contains(op.DropAfter, op.Var)

	if len(op.Path) == 0 {
		// Alias: same instances under a new name.
		return x.projAlias(t, srcCol, op.Var, srcDies, targetDead)
	}

	lastCol := len(t.Vars) - 1
	replaceInPlace := srcDies && srcCol == lastCol
	// Resolve targets, cursor chains and existence spans once per distinct
	// source class: with descendant-axis variables there can be thousands
	// of (segment, target) pairs sharing the same source class.
	resolved := map[skeleton.ClassID]*projTargets{}
	resolve := func(src skeleton.ClassID) *projTargets {
		if pt, ok := resolved[src]; ok {
			return pt
		}
		pt := &projTargets{classes: x.resolveTargets(src, op.Path)}
		pt.curs = make([][]*skeleton.Cursor, len(pt.classes))
		pt.keep = make([][]span, len(pt.classes))
		for i, dst := range pt.classes {
			pt.curs[i] = x.cursorsBetween(src, dst)
			pt.keep[i] = x.nonEmptySpans(src, dst, pt.curs[i])
		}
		resolved[src] = pt
		return pt
	}
	var outSegs []*Segment
	for _, seg := range t.Segs {
		pt := resolve(seg.Classes[srcCol])
		switch {
		case targetDead:
			outSegs = append(outSegs, x.projDead(seg, srcCol, pt.classes)...)
		case replaceInPlace:
			outSegs = append(outSegs, x.projReplace(seg, srcCol, pt.classes)...)
		default:
			outSegs = append(outSegs, x.projExpand(seg, srcCol, pt, srcDies)...)
		}
	}

	t.Segs = outSegs
	switch {
	case targetDead:
		// Var never materializes; multiplicities carry its bindings.
	case replaceInPlace:
		t.Vars[srcCol] = op.Var
		delete(x.varTabs, op.Src)
		x.varTabs[op.Var] = indexOfTable(x.tables, t)
	case srcDies:
		t.Vars = append(removeStringAt(t.Vars, srcCol), op.Var)
		delete(x.varTabs, op.Src)
		x.varTabs[op.Var] = indexOfTable(x.tables, t)
	default:
		t.Vars = append(t.Vars, op.Var)
		x.varTabs[op.Var] = indexOfTable(x.tables, t)
	}
	for _, s := range outSegs {
		x.stats.RowsProduced += int64(len(s.Rows))
	}
	return nil
}

func removeStringAt(s []string, i int) []string {
	out := make([]string, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

// projDead folds the fanout into multiplicities: for each source
// occurrence, Mult *= total target count (zero drops the occurrence).
func (x *evalContext) projDead(seg *Segment, srcCol int, targets []skeleton.ClassID) []*Segment {
	e := x.e
	chains := make([][]*skeleton.Cursor, len(targets))
	for i, dst := range targets {
		chains[i] = e.chainCursors(e.chainBetween(seg.Classes[srcCol], dst))
	}
	out := &Segment{Classes: seg.Classes}
	last := srcCol == len(seg.Classes)-1
	for _, r := range seg.Rows {
		if last && len(chains) == 1 && len(chains[0]) == 1 {
			// Fast path: single one-step chain on the trailing run column —
			// split by uniform fanout without expanding.
			chains[0][0].Segments(r.Occ[srcCol], r.Run, func(p0, n, k, _ int64) {
				if k == 0 {
					return
				}
				occ := make([]int64, len(r.Occ))
				copy(occ, r.Occ)
				occ[srcCol] = p0
				out.Rows = append(out.Rows, Row{Occ: occ, Run: n, Mult: r.Mult * k})
			})
			continue
		}
		// When the source is a middle column, the trailing run belongs to a
		// different (live) variable and must survive: fanout is uniform
		// across that run because it depends only on the source occurrence.
		span, keepRun := int64(1), r.Run
		if last {
			span, keepRun = r.Run, 1
		}
		for i := int64(0); i < span; i++ {
			p := r.Occ[srcCol] + i
			var total int64
			for _, curs := range chains {
				_, cnt := descendSpan(curs, p, 1)
				total += cnt
			}
			if total == 0 {
				continue
			}
			occ := make([]int64, len(r.Occ))
			copy(occ, r.Occ)
			occ[srcCol] = p
			out.Rows = append(out.Rows, Row{Occ: occ, Run: keepRun, Mult: r.Mult * total})
		}
	}
	out.Rows = mergeRows(out.Rows)
	if len(out.Rows) == 0 {
		return nil
	}
	return []*Segment{out}
}

// projReplace replaces the trailing source column with the target: the
// children of a run of sources are a contiguous run of targets.
func (x *evalContext) projReplace(seg *Segment, srcCol int, targets []skeleton.ClassID) []*Segment {
	e := x.e
	var out []*Segment
	for _, dst := range targets {
		curs := e.chainCursors(e.chainBetween(seg.Classes[srcCol], dst))
		classes := make([]skeleton.ClassID, len(seg.Classes))
		copy(classes, seg.Classes)
		classes[srcCol] = dst
		os := &Segment{Classes: classes}
		for _, r := range seg.Rows {
			start, count := descendSpan(curs, r.Occ[srcCol], r.Run)
			if count == 0 {
				continue
			}
			occ := make([]int64, len(r.Occ))
			copy(occ, r.Occ)
			occ[srcCol] = start
			os.Rows = append(os.Rows, Row{Occ: occ, Run: count, Mult: r.Mult})
		}
		os.Rows = mergeRows(os.Rows)
		if len(os.Rows) > 0 {
			out = append(out, os)
		}
	}
	return out
}

// projTargets caches, per source class, the resolved target classes with
// their cursor chains and non-empty source spans.
type projTargets struct {
	classes []skeleton.ClassID
	curs    [][]*skeleton.Cursor
	keep    [][]span
}

// projExpand materializes one row per (source, contiguous-target-range):
// the general both-live case. If srcDies (but src is not the trailing
// column) the source column is removed from the result.
//
// With many target classes (descendant-axis variables over irregular
// data), most (source occurrence, target class) pairs are empty; a
// memoized whole-class existence pass prunes them before any per-row
// descent, so the cost tracks matches rather than rows × classes.
func (x *evalContext) projExpand(seg *Segment, srcCol int, pt *projTargets, srcDies bool) []*Segment {
	x.normalizeSeg(seg) // runs only survive on the trailing column
	var out []*Segment
	for di, dst := range pt.classes {
		curs, keep := pt.curs[di], pt.keep[di]
		if len(keep) == 0 {
			continue
		}
		var os *Segment // allocated on first surviving row
		for _, r := range seg.Rows {
			if !spanContains(keep, r.Occ[srcCol]) {
				continue
			}
			start, count := descendSpan(curs, r.Occ[srcCol], 1)
			if count == 0 {
				continue
			}
			if os == nil {
				var classes []skeleton.ClassID
				if srcDies {
					classes = removeAt(seg.Classes, srcCol)
				} else {
					classes = append([]skeleton.ClassID{}, seg.Classes...)
				}
				os = &Segment{Classes: append(classes, dst)}
			}
			var occ []int64
			if srcDies {
				occ = removeAt64(r.Occ, srcCol)
			} else {
				occ = append([]int64{}, r.Occ...)
			}
			occ = append(occ, start)
			os.Rows = append(os.Rows, Row{Occ: occ, Run: count, Mult: r.Mult})
		}
		if os != nil && len(os.Rows) > 0 {
			os.Rows = mergeRows(os.Rows)
			out = append(out, os)
		}
	}
	return out
}

// projAlias duplicates (or renames) a column for zero-step projections.
func (x *evalContext) projAlias(t *Table, srcCol int, newVar string, srcDies, targetDead bool) error {
	if targetDead {
		return nil // alias of an existing binding: multiplicity 1, no-op
	}
	if srcDies {
		old := t.Vars[srcCol]
		t.Vars[srcCol] = newVar
		delete(x.varTabs, old)
		x.varTabs[newVar] = indexOfTable(x.tables, t)
		return nil
	}
	for _, seg := range t.Segs {
		x.normalizeSeg(seg)
		seg.Classes = append(seg.Classes, seg.Classes[srcCol])
		for i := range seg.Rows {
			seg.Rows[i].Occ = append(seg.Rows[i].Occ, seg.Rows[i].Occ[srcCol])
		}
	}
	t.Vars = append(t.Vars, newVar)
	x.varTabs[newVar] = indexOfTable(x.tables, t)
	return nil
}

func contains(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}

func removeAt(s []skeleton.ClassID, i int) []skeleton.ClassID {
	out := make([]skeleton.ClassID, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

func removeAt64(s []int64, i int) []int64 {
	out := make([]int64, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

func indexOfTable(tables []*Table, t *Table) int {
	for i, x := range tables {
		if x == t {
			return i
		}
	}
	panic("core: table not registered")
}

// nonEmptySpansHit returns (memoized) the spans of src-class occurrences
// that have at least one descendant at dst along the chain, and whether
// the answer came from the memo.
func (e *Engine) nonEmptySpansHit(src, dst skeleton.ClassID, curs []*skeleton.Cursor) ([]span, bool) {
	key := [2]skeleton.ClassID{src, dst}
	e.memoMu.Lock()
	s, ok := e.spanMemo[key]
	e.memoMu.Unlock()
	if ok {
		return s, true
	}
	total := e.Classes.Count(src)
	if len(curs) == 0 {
		s = []span{{0, total}}
	} else {
		s = existsRuns(curs, 0, 0, total)
	}
	e.memoMu.Lock()
	if e.spanMemo == nil {
		e.spanMemo = make(map[[2]skeleton.ClassID][]span)
	}
	e.spanMemo[key] = s
	e.memoMu.Unlock()
	return s, false
}

// cursorsBetween memoizes the cursor chain from src down to dst.
func (e *Engine) cursorsBetween(src, dst skeleton.ClassID) []*skeleton.Cursor {
	c, _ := e.cursorsBetweenHit(src, dst)
	return c
}

func (e *Engine) cursorsBetweenHit(src, dst skeleton.ClassID) ([]*skeleton.Cursor, bool) {
	key := [2]skeleton.ClassID{src, dst}
	e.memoMu.Lock()
	c, ok := e.chainMemo[key]
	e.memoMu.Unlock()
	if ok {
		return c, true
	}
	c = e.chainCursors(e.chainBetween(src, dst))
	e.memoMu.Lock()
	if e.chainMemo == nil {
		e.chainMemo = make(map[[2]skeleton.ClassID][]*skeleton.Cursor)
	}
	e.chainMemo[key] = c
	e.memoMu.Unlock()
	return c, false
}

// spanContains reports whether sorted spans cover position p.
func spanContains(spans []span, p int64) bool {
	lo, hi := 0, len(spans)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		s := spans[mid]
		switch {
		case p < s.Start:
			hi = mid - 1
		case p >= s.Start+s.Count:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}
