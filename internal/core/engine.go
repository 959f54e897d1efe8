package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
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
}

// add accumulates another stats snapshot (used to total per-op deltas).
func (s *EvalStats) add(d EvalStats) {
	s.VectorsOpened += d.VectorsOpened
	s.ValuesScanned += d.ValuesScanned
	s.RowsProduced += d.RowsProduced
	s.Tuples += d.Tuples
	s.RunsExpanded += d.RunsExpanded
	s.IndexHits += d.IndexHits
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
	}
}

// Engine evaluates plans over one vectorized document.
//
// An Engine is safe for concurrent use: every Eval/EvalToDir call builds
// its own evalContext holding all mutable per-evaluation state (stats,
// lazily opened vectors, instantiation tables), while the engine itself
// keeps only immutable inputs plus the mutex-guarded value indexes.
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

	rds     map[skeleton.ClassID]*reader // text class -> the evaluation's reader (readerFor)
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
		rds:     make(map[skeleton.ClassID]*reader),
		varTabs: make(map[string]int),
	}
}

// readerFor returns the evaluation's reader of a text class's vector,
// opening the vector on first use as the view that charges page faults to
// the query's meter and honors its context during transient-read retry.
// The ops, the chunk of a scan fan-out that owns the vector and result
// emission all read through this one reader, so its cursor resumes across
// them and a pass in document order decodes each extent once per
// evaluation. It is called from the serial part of an operation (never
// inside a scan fan-out), so the cache needs no lock; closeReaders
// releases the readers when the evaluation ends.
//
//vx:rawvector the one open every reader (and so every cancel poll) is built on
func (x *evalContext) readerFor(c skeleton.ClassID) (*reader, error) {
	if rd, ok := x.rds[c]; ok {
		return rd, nil
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
	rd := x.newReader(c, v)
	x.rds[c] = rd
	x.stats.VectorsOpened++
	x.meter.VectorOpen()
	return rd, nil
}

func (x *evalContext) closeReaders() {
	for _, rd := range x.rds {
		rd.Close()
	}
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
	vec   vector.Vector
	x     *evalContext
	class skeleton.ClassID
}

// newReader returns a reader over v, text class c's vector as readerFor
// opened it. Readers are single-goroutine: a chunk of a scan fan-out that
// does not own a vector reads it through a reader of its own. Close it
// when done.
func (x *evalContext) newReader(c skeleton.ClassID, v vector.Vector) *reader {
	return &reader{cur: vector.NewCursor(v), vec: v, x: x, class: c}
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
			n += int64(len(t.Rows))
		}
	}
	return n
}

func (x *evalContext) expandAll() {
	for _, t := range x.tables {
		if t != nil && len(t.Classes) > 0 {
			x.normalizeSeg(&t.Segment)
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

// opBind instantiates a variable from the document root: one row per
// target class, a run over all its occurrences. Several target classes
// make the column class-set.
func (x *evalContext) opBind(op qgraph.Op) error {
	var targets []skeleton.ClassID
	for _, c := range x.e.resolveFromDoc(op.Path) {
		if x.e.Classes.Count(c) > 0 {
			targets = append(targets, c)
		}
	}
	t := &Table{Vars: []string{op.Var}, Segment: Segment{Classes: []skeleton.ClassID{skeleton.NoClass}}}
	if err := x.e.setClass(&t.Segment, 0, targets); err != nil {
		return err
	}
	for _, c := range targets {
		t.Rows = append(t.Rows, Row{Occ: []int64{t.entry(0, c, 0)}, Run: x.e.Classes.Count(c), Mult: 1})
	}
	x.stats.RowsProduced += int64(len(t.Rows))
	x.tables = append(x.tables, t)
	x.varTabs[op.Var] = len(x.tables) - 1
	return nil
}

// setClass makes column col of seg single-class when targets is one
// class, and class-set otherwise, checking that the classes fit a tagged
// entry (occBits).
func (e *Engine) setClass(seg *Segment, col int, targets []skeleton.ClassID) error {
	if len(targets) == 1 {
		seg.Classes[col] = targets[0]
		return nil
	}
	seg.Classes[col] = skeleton.NoClass
	for _, c := range targets {
		if int64(c) >= 1<<(63-occBits) || e.Classes.Count(c) >= 1<<occBits {
			return fmt.Errorf("core: class %s is beyond a class-set column's range", e.Classes.Path(c))
		}
	}
	return nil
}

// resolveFromDoc resolves a document-rooted path. The first step matches
// against the (virtual document node's only child, the) root element:
// "/bib/book" selects book children of a <bib> root and nothing on any
// other root; "//author" selects author elements anywhere, including the
// root itself if it is named author.
func (e *Engine) resolveFromDoc(steps []xq.Step) []skeleton.ClassID {
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
	var out []skeleton.ClassID
	for _, s := range seeds {
		out = append(out, e.resolveTargets(s, rest)...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// opProj instantiates op.Var from op.Src via op.Path — the projection
// reduce step. The new column is class-set when the targets are several.
// Cardinality handling depends on liveness:
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
	srcDies := slices.Contains(op.DropAfter, op.Src)
	targetDead := slices.Contains(op.DropAfter, op.Var)

	if len(op.Path) == 0 {
		// Alias: same instances under a new name.
		return x.projAlias(t, srcCol, op.Var, srcDies, targetDead)
	}

	replaceInPlace := srcDies && srcCol == len(t.Vars)-1
	p := x.paths(op.Path, false)
	seg := &t.Segment
	var out *Segment
	if targetDead {
		out = x.projDead(seg, srcCol, p)
	} else {
		items := x.projItems(seg, srcCol, p, replaceInPlace)
		targets := make([]skeleton.ClassID, len(items))
		for i, it := range items {
			targets[i] = it.dst
		}
		slices.Sort(targets)
		if replaceInPlace {
			out = &Segment{Classes: slices.Clone(seg.Classes)}
		} else {
			out = &Segment{Classes: append(dropIf(seg.Classes, srcCol, srcDies), skeleton.NoClass)}
		}
		if err := x.e.setClass(out, len(out.Classes)-1, slices.Compact(targets)); err != nil {
			return err
		}
		if replaceInPlace {
			projReplace(seg, out, srcCol, items)
		} else {
			projExpand(seg, out, srcCol, items, srcDies)
		}
	}
	out.Rows = mergeRows(out.Rows)
	x.stats.RowsProduced += int64(len(out.Rows))
	t.Segment = *out
	switch {
	case targetDead:
		// Var never materializes; multiplicities carry its bindings.
	case replaceInPlace:
		t.Vars[srcCol] = op.Var
		delete(x.varTabs, op.Src)
		x.varTabs[op.Var] = indexOfTable(x.tables, t)
	case srcDies:
		t.Vars = append(dropIf(t.Vars, srcCol, true), op.Var)
		delete(x.varTabs, op.Src)
		x.varTabs[op.Var] = indexOfTable(x.tables, t)
	default:
		t.Vars = append(t.Vars, op.Var)
		x.varTabs[op.Var] = indexOfTable(x.tables, t)
	}
	return nil
}

// projItem is one match of a projection: a row, its source entry (one
// occurrence, or the row's whole source run), a target class and the
// span of the source's descendants there.
type projItem struct {
	row          int
	src          int64
	dst          skeleton.ClassID
	start, count int64
}

// projItems finds every (row, source occurrence, target class) of seg
// whose source has descendants at the target, sorted by row, source and
// target class. It walks each target's keep spans — the source
// occurrences with a descendant there, computed from the target side —
// and binary-searches the rows each span meets, so the cost follows the
// targets' occurrences and the matches, never rows × target classes, and
// source occurrences without a match never become items. With perRow, an
// item covers its row's whole source run instead of one occurrence.
func (x *evalContext) projItems(seg *Segment, col int, p *pathRes, perRow bool) []projItem {
	rows := seg.Rows
	last := col == len(seg.Classes)-1
	runOf := func(r *Row) int64 {
		if last {
			return r.Run
		}
		return 1
	}
	// A row covering a span starts less than maxRun entries before it.
	keys := seg.byEntry(col)
	maxRun := int64(1)
	for i := range rows {
		maxRun = max(maxRun, runOf(&rows[i]))
	}
	var items []projItem
	for _, c := range seg.classesOf(col) {
		for _, ch := range p.from(c) {
			for _, k := range existsRuns(ch.down, x.e.Classes.Count(ch.dst)) {
				lo, hi := seg.entry(col, c, k.Start), seg.entry(col, c, k.Start+k.Count)
				i, _ := slices.BinarySearchFunc(keys, lo-maxRun+1, func(k rowKey, v int64) int { return cmp.Compare(k.entry, v) })
				for ; i < len(keys) && keys[i].entry < hi; i++ {
					r := &rows[keys[i].row]
					a, b := max(r.Occ[col], lo), min(r.Occ[col]+runOf(r), hi)
					if perRow && a < b {
						a, b = r.Occ[col], r.Occ[col]+1
					}
					for v := a; v < b; v++ {
						n := int64(1)
						if perRow {
							n = runOf(r)
						}
						_, occ := seg.at(col, v)
						start, count := descendSpan(ch.down, occ, n)
						items = append(items, projItem{keys[i].row, v, ch.dst, start, count})
					}
				}
			}
		}
	}
	slices.SortFunc(items, func(a, b projItem) int {
		return cmp.Or(cmp.Compare(a.row, b.row), cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst))
	})
	// perRow: a row meeting several spans of one target matched once each.
	return slices.CompactFunc(items, func(a, b projItem) bool { return a.row == b.row && a.dst == b.dst && a.src == b.src })
}

// projExpand materializes into out one row per (source occurrence,
// target class, contiguous target run): the general both-live case, in
// source row order. A run on another trailing column expands only into
// output rows, for rows with matches. If srcDies (but src is not the
// trailing column) the source column is removed from the result.
func projExpand(seg, out *Segment, srcCol int, items []projItem, srcDies bool) {
	last, col := len(seg.Classes)-1, len(out.Classes)-1
	for g := 0; g < len(items); {
		h := g + 1
		for h < len(items) && items[h].row == items[g].row {
			h++
		}
		r := seg.Rows[items[g].row]
		n := int64(1)
		if srcCol != last {
			n = r.Run
		}
		for i := int64(0); i < n; i++ {
			for _, it := range items[g:h] {
				occ := append(make([]int64, 0, len(r.Occ)+1), r.Occ...)
				occ[srcCol] = it.src
				occ[last] += i
				if srcDies {
					occ = slices.Delete(occ, srcCol, srcCol+1)
				}
				occ = append(occ, out.entry(col, it.dst, it.start))
				out.Rows = append(out.Rows, Row{Occ: occ, Run: it.count, Mult: r.Mult})
			}
		}
		g = h
	}
}

// projReplace replaces the trailing source column with the target: the
// descendants of a run of sources at one target class are a contiguous
// run of targets.
func projReplace(seg, out *Segment, srcCol int, items []projItem) {
	for _, it := range items {
		r := seg.Rows[it.row]
		occ := slices.Clone(r.Occ)
		occ[srcCol] = out.entry(srcCol, it.dst, it.start)
		out.Rows = append(out.Rows, Row{Occ: occ, Run: it.count, Mult: r.Mult})
	}
}

// projDead folds the fanout into multiplicities: for each source
// occurrence, Mult *= total target count (zero drops the occurrence).
func (x *evalContext) projDead(seg *Segment, srcCol int, p *pathRes) *Segment {
	out := &Segment{Classes: seg.Classes}
	last := srcCol == len(seg.Classes)-1
	// When the source is a middle column, the trailing run belongs to a
	// different (live) variable and must survive: fanout is uniform
	// across that run because it depends only on the source occurrence.
	keepRun := func(r *Row, n int64) int64 {
		if last {
			return n
		}
		return r.Run
	}
	if c := seg.Classes[srcCol]; c != skeleton.NoClass {
		if chains := p.from(c); len(chains) == 1 && len(chains[0].down) == 1 {
			// Fast path: a single one-step chain — split by uniform fanout
			// without expanding.
			for _, r := range seg.Rows {
				span := int64(1)
				if last {
					span = r.Run
				}
				chains[0].down[0].Segments(r.Occ[srcCol], span, func(p0, n, k, _ int64) {
					if k == 0 {
						return
					}
					occ := slices.Clone(r.Occ)
					occ[srcCol] = p0
					out.Rows = append(out.Rows, Row{Occ: occ, Run: keepRun(&r, n), Mult: r.Mult * k})
				})
			}
			return out
		}
	}
	items := x.projItems(seg, srcCol, p, false)
	for g := 0; g < len(items); {
		h, total := g, int64(0)
		for ; h < len(items) && items[h].row == items[g].row && items[h].src == items[g].src; h++ {
			total += items[h].count
		}
		r := seg.Rows[items[g].row]
		occ := slices.Clone(r.Occ)
		occ[srcCol] = items[g].src
		out.Rows = append(out.Rows, Row{Occ: occ, Run: keepRun(&r, 1), Mult: r.Mult * total})
		g = h
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
	x.normalizeSeg(&t.Segment)
	t.Classes = append(t.Classes, t.Classes[srcCol])
	for i := range t.Rows {
		t.Rows[i].Occ = append(t.Rows[i].Occ, t.Rows[i].Occ[srcCol])
	}
	t.Vars = append(t.Vars, newVar)
	x.varTabs[newVar] = indexOfTable(x.tables, t)
	return nil
}

// dropIf returns a copy of s, without element i when drop is set.
func dropIf[T any](s []T, i int, drop bool) []T {
	if drop {
		return slices.Delete(slices.Clone(s), i, i+1)
	}
	return slices.Clone(s)
}

func indexOfTable(tables []*Table, t *Table) int {
	for i, x := range tables {
		if x == t {
			return i
		}
	}
	panic("core: table not registered")
}
