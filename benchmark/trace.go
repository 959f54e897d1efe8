package main

import (
	"bufio"
	"context"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"vxml/internal/obs"
	"vxml/internal/storage"
	"vxml/internal/vector"
)

// spanName identifies a layer boundary the benchmark records a span at.
// Names are <package>.<Func> of the public function the span surrounds.
type spanName uint8

const (
	spOp spanName = iota
	spOpen
	spClose
	spAppend
	spParse
	spBuild
	spEval
	spXML
	spHandler
	spSetVector
	spScan
	spFSOpenFile
	spFSReadFile
	spFSReadAt
	spFSWriteAt
	spFSSync
	spFSSyncDir
	spFSRename
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOp:         "benchmark.op",
	spOpen:       "vectorize.Open",
	spClose:      "vectorize.Repository.Close",
	spAppend:     "vectorize.Repository.Append",
	spParse:      "xq.Parse",
	spBuild:      "qgraph.Build",
	spEval:       "core.Engine.Eval",
	spXML:        "vectorize.ReconstructXML",
	spHandler:    "serve.Handler.ServeHTTP",
	spSetVector:  "vector.Set.Vector",
	spScan:       "vector.Vector.Scan",
	spFSOpenFile: "storage.FS.OpenFile",
	spFSReadFile: "storage.FS.ReadFile",
	spFSReadAt:   "storage.FSFile.ReadAt",
	spFSWriteAt:  "storage.FSFile.WriteAt",
	spFSSync:     "storage.FSFile.Sync",
	spFSSyncDir:  "storage.FS.SyncDir",
	spFSRename:   "storage.FS.Rename",
}

// span is one recorded call. ID is its index in the trace; Parent is
// resolved after the run (see analyse).
type span struct {
	Op, Parent int32
	Name       spanName
	Start, End int64 // ns since the tracer's base
}

// counts totals what the wrappers saw in one scope of a run.
type counts struct {
	ns, calls  [numSpanNames]int64
	values     int64 // values handed to Scan callbacks
	valueBytes int64
	readBytes  int64 // ReadAt + ReadFile
	writeBytes int64
	planOps    int64            // ops in the plans qgraph.Build returned
	evalNS     map[string]int64 // Engine.Eval time per query label
}

// tracer records spans and counts at the layer boundaries, from outside
// the program: the benchmark times its own calls into each package and
// hands the program wrapped storage.FS and vector.Set values. All methods
// are safe on a nil tracer (the untraced run) and cost one branch there.
//
// A traced phase has one client, so spans nest by time alone; the engine's
// scan workers may still call wrappers concurrently, hence the lock.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	scope *counts // where wrapper calls are charged; nil discards them
	keep  bool    // also store spans (the timed scope)
	op    int32
	spans []span

	setup, warm, timed counts
}

func newTracer() *tracer {
	return &tracer{base: time.Now()}
}

// enter switches the scope wrapper calls are charged to.
func (t *tracer) enter(scope *counts, keep bool, spanCap int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.scope, t.keep = scope, keep
	if scope != nil && scope.evalNS == nil {
		scope.evalNS = make(map[string]int64)
	}
	if keep && cap(t.spans) < spanCap {
		t.spans = make([]span, 0, spanCap)
	}
}

func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

func (t *tracer) end(name spanName, start int64) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.base))
	t.mu.Lock()
	t.record(name, start, end)
	t.mu.Unlock()
}

// record charges one call to the current scope; t.mu is held.
func (t *tracer) record(name spanName, start, end int64) {
	if t.scope == nil {
		return
	}
	t.scope.ns[name] += end - start
	t.scope.calls[name]++
	if t.keep {
		t.spans = append(t.spans, span{Op: t.op, Parent: -1, Name: name, Start: start, End: end})
	}
}

// endEval ends an Engine.Eval span and charges it to its query as well.
func (t *tracer) endEval(label string, start int64) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.base))
	t.mu.Lock()
	t.record(spEval, start, end)
	if t.scope != nil {
		t.scope.evalNS[label] += end - start
	}
	t.mu.Unlock()
}

// planOps counts the ops of one built plan.
func (t *tracer) planOps(n int) {
	t.mu.Lock()
	if t.scope != nil {
		t.scope.planOps += int64(n)
	}
	t.mu.Unlock()
}

// startOp makes op the trace that subsequent spans belong to.
func (t *tracer) startOp(op int) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.op = int32(op)
	t.mu.Unlock()
	return t.begin()
}

// fs returns the filesystem the program should use: the OS one, wrapped
// when tracing.
func (t *tracer) fs() storage.FS {
	if t == nil {
		return nil
	}
	return tracedFS{storage.OsFS{}, t}
}

// set wraps a vector set when tracing.
func (t *tracer) set(s vector.Set) vector.Set {
	if t == nil {
		return s
	}
	return &tracedSet{s, t}
}

// tracedFS counts and times the filesystem calls the storage layer makes.
type tracedFS struct {
	storage.FS
	t *tracer
}

func (f tracedFS) OpenFile(path string, flag int, perm os.FileMode) (storage.FSFile, error) {
	s := f.t.begin()
	file, err := f.FS.OpenFile(path, flag, perm)
	f.t.end(spFSOpenFile, s)
	if err != nil {
		return nil, err
	}
	return &tracedFile{file, f.t}, nil
}

func (f tracedFS) ReadFile(path string) ([]byte, error) {
	s := f.t.begin()
	data, err := f.FS.ReadFile(path)
	f.t.endIO(spFSReadFile, s, len(data))
	return data, err
}

func (f tracedFS) Rename(oldpath, newpath string) error {
	s := f.t.begin()
	err := f.FS.Rename(oldpath, newpath)
	f.t.end(spFSRename, s)
	return err
}

func (f tracedFS) SyncDir(path string) error {
	s := f.t.begin()
	err := f.FS.SyncDir(path)
	f.t.end(spFSSyncDir, s)
	return err
}

type tracedFile struct {
	storage.FSFile
	t *tracer
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	s := f.t.begin()
	n, err := f.FSFile.ReadAt(p, off)
	f.t.endIO(spFSReadAt, s, n)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	s := f.t.begin()
	n, err := f.FSFile.WriteAt(p, off)
	f.t.endIO(spFSWriteAt, s, n)
	return n, err
}

func (f *tracedFile) Sync() error {
	s := f.t.begin()
	err := f.FSFile.Sync()
	f.t.end(spFSSync, s)
	return err
}

// endIO ends a read or write span and counts its bytes.
func (t *tracer) endIO(name spanName, start int64, n int) {
	end := int64(time.Since(t.base))
	t.mu.Lock()
	t.record(name, start, end)
	if t.scope != nil {
		if name == spFSWriteAt {
			t.scope.writeBytes += int64(n)
		} else {
			t.scope.readBytes += int64(n)
		}
	}
	t.mu.Unlock()
}

// tracedSet times vector opens and hands out tracedVectors.
type tracedSet struct {
	vector.Set
	t *tracer
}

func (s *tracedSet) Vector(name string) (vector.Vector, error) {
	return s.VectorCtx(context.Background(), nil, name)
}

// VectorCtx implements vector.CtxSet, so request attribution still
// reaches the wrapped set.
func (s *tracedSet) VectorCtx(ctx context.Context, m *obs.TaskMeter, name string) (vector.Vector, error) {
	start := s.t.begin()
	v, err := vector.OpenFrom(ctx, m, s.Set, name)
	s.t.end(spSetVector, start)
	if err != nil {
		return nil, err
	}
	return &tracedVector{v, s.t}, nil
}

// tracedVector times scans and counts the values they deliver. It
// forwards Metered and WithContext so the engine treats it exactly like
// the disk vector underneath.
type tracedVector struct {
	vector.Vector
	t *tracer
}

func (v *tracedVector) Scan(start, n int64, fn func(pos int64, val []byte) error) error {
	var values, size int64
	s := v.t.begin()
	err := v.Vector.Scan(start, n, func(pos int64, val []byte) error {
		values++
		size += int64(len(val))
		return fn(pos, val)
	})
	end := int64(time.Since(v.t.base))
	v.t.mu.Lock()
	v.t.record(spScan, s, end)
	if v.t.scope != nil {
		v.t.scope.values += values
		v.t.scope.valueBytes += size
	}
	v.t.mu.Unlock()
	return err
}

func (v *tracedVector) Metered(m *obs.TaskMeter) vector.Vector {
	if mv, ok := v.Vector.(vector.Meterable); ok {
		return &tracedVector{mv.Metered(m), v.t}
	}
	return v
}

func (v *tracedVector) WithContext(ctx context.Context) vector.Vector {
	if cv, ok := v.Vector.(vector.Contextual); ok {
		return &tracedVector{cv.WithContext(ctx), v.t}
	}
	return v
}

// analysis is what the stored spans say once nested.
type analysis struct {
	// self is, per span name, the wall time during which a span of that
	// name was the innermost active one.
	self [numSpanNames]int64
	opNS int64 // total of the op root spans; equals the sum of self
}

// analyse resolves each span's parent — the innermost span of the same op
// that contains it in time — and splits every op's wall time among its
// spans: each instant belongs to the innermost active span, which for a
// span is its duration minus what its children cover. Where the engine's
// scan workers have two innermost spans active at once, each gets half of
// that instant, so the parts of an op always sum to the op.
func (t *tracer) analyse() analysis {
	var a analysis
	spans := t.spans
	var (
		order  []int32 // the op's spans, outer first
		pos    []int32 // by span id - from: its place in order
		stack  []int32
		events []sweepEvent
		kids   []int32 // by span id - from: open children
		leaves []int32 // spans that are open and have no open child
	)
	// Ops are sequential, so each op's spans are contiguous.
	for from := 0; from < len(spans); {
		to := from
		for to < len(spans) && spans[to].Op == spans[from].Op {
			to++
		}
		order, stack, events, leaves = order[:0], stack[:0], events[:0], leaves[:0]
		for i := from; i < to; i++ {
			order = append(order, int32(i))
		}
		// Outer spans first: earlier start, then later end, then recorded
		// later (a parent is recorded after the children it contains).
		sort.Slice(order, func(i, j int) bool {
			x, y := spans[order[i]], spans[order[j]]
			if x.Start != y.Start {
				return x.Start < y.Start
			}
			if x.End != y.End {
				return x.End > y.End
			}
			return order[i] > order[j]
		})
		pos = append(pos[:0], make([]int32, to-from)...)
		kids = append(kids[:0], make([]int32, to-from)...)
		for i, id := range order {
			pos[int(id)-from] = int32(i)
			sp := &spans[id]
			for len(stack) > 0 && spans[stack[len(stack)-1]].End < sp.End {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				sp.Parent = stack[len(stack)-1]
			}
			stack = append(stack, id)
			if sp.Name == spOp {
				a.opNS += sp.End - sp.Start
			}
			if sp.End > sp.Start {
				events = append(events, sweepEvent{sp.Start, true, id}, sweepEvent{sp.End, false, id})
			}
		}
		// At one instant: ends before starts, inner ends first, outer
		// starts first.
		sort.Slice(events, func(i, j int) bool {
			x, y := events[i], events[j]
			if x.at != y.at {
				return x.at < y.at
			}
			if x.start != y.start {
				return !x.start
			}
			if x.start {
				return pos[int(x.id)-from] < pos[int(y.id)-from]
			}
			return pos[int(x.id)-from] > pos[int(y.id)-from]
		})
		drop := func(id int32) {
			for i, l := range leaves {
				if l == id {
					leaves = append(leaves[:i], leaves[i+1:]...)
					return
				}
			}
		}
		var last int64
		for _, ev := range events {
			if n := int64(len(leaves)); n > 0 && ev.at > last {
				for _, l := range leaves {
					a.self[spans[l].Name] += (ev.at - last) / n
				}
			}
			last = ev.at
			parent := spans[ev.id].Parent
			if ev.start {
				if parent >= 0 {
					if kids[int(parent)-from] == 0 {
						drop(parent)
					}
					kids[int(parent)-from]++
				}
				leaves = append(leaves, ev.id)
				continue
			}
			drop(ev.id)
			if parent >= 0 {
				kids[int(parent)-from]--
				if kids[int(parent)-from] == 0 {
					leaves = append(leaves, parent)
				}
			}
		}
		from = to
	}
	return a
}

// sweepEvent is one span boundary on an op's timeline.
type sweepEvent struct {
	at    int64
	start bool
	id    int32
}

// writeSpans writes the trace as a JSON array, one span per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 160)
	w.WriteString("[\n")
	for i, sp := range t.spans {
		buf = buf[:0]
		buf = append(buf, `{"op":`...)
		buf = strconv.AppendInt(buf, int64(sp.Op), 10)
		buf = append(buf, `,"id":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(sp.Parent), 10)
		buf = append(buf, `,"name":"`...)
		buf = append(buf, spanNames[sp.Name]...)
		buf = append(buf, `","start_ns":`...)
		buf = strconv.AppendInt(buf, sp.Start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, sp.End, 10)
		buf = append(buf, '}')
		if i+1 < len(t.spans) {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
