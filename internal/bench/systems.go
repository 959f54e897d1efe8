package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vxml/internal/core"
	"vxml/internal/docstore"
	"vxml/internal/dom"
	"vxml/internal/qgraph"
	"vxml/internal/relational"
	"vxml/internal/skeleton"
	"vxml/internal/storage"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// SystemID names one of the five compared systems.
type SystemID string

// The systems of Table 3.
const (
	VX SystemID = "VX" // this paper: vectorized store + graph reduction
	DS SystemID = "DS" // document store, BDB XML-like (XPath only)
	GX SystemID = "GX" // main-memory XQuery interpreter, Galax-like
	CR SystemID = "CR" // column relational, MonetDB association mapping
	RR SystemID = "RR" // row relational + indexes, SQL Server-like
)

// AllSystems lists the systems in Table 3 order.
var AllSystems = []SystemID{VX, DS, GX, CR, RR}

// Failure reasons, phrased as in the paper's Table 2.
const (
	FailNoXQuery = "No XQuery support"
	FailOoM      = "OoM"
	FailLoad     = "Could not load doc."
	FailTimeout  = "Timeout"
	FailNA       = "N/A"
)

// Result is one (system, query) measurement.
type Result struct {
	System  SystemID
	Query   QueryID
	Elapsed time.Duration
	Results int64  // result items produced
	Fail    string // empty on success
	Err     error  // detail behind Fail, if any
}

// OK reports whether the run succeeded.
func (r Result) OK() bool { return r.Fail == "" }

// Run evaluates one query on one system (preparing the dataset first if
// needed).
func (h *Harness) Run(sys SystemID, q QueryID) Result {
	d, err := h.Dataset(DatasetOf(q))
	if err != nil {
		return Result{System: sys, Query: q, Fail: "prepare failed", Err: err}
	}
	return h.runOn(sys, q, d)
}

func (h *Harness) runOn(sys SystemID, q QueryID, d *Dataset) Result {
	switch sys {
	case VX:
		return d.runVX(q, core.Options{})
	case GX:
		return d.runGX(q)
	case DS:
		return d.runDS(q)
	case CR:
		return d.runCR(q)
	case RR:
		return d.runRR(q)
	}
	return Result{System: sys, Query: q, Fail: "unknown system"}
}

// ---- VX ----

// runVX opens the repository (skeleton resident, vectors lazy) and times
// plan construction plus graph-reduction evaluation with a cold buffer
// pool.
func (d *Dataset) runVX(q QueryID, opts core.Options) Result {
	return d.runVXPlanned(q, opts, qgraph.Options{})
}

// runVXIndexed evaluates with vector value indexes built on the given
// paths first (load-time work, like the tuned relational indexes) — the
// §6 future-work extension.
func (d *Dataset) runVXIndexed(q QueryID, indexPaths []string) Result {
	res := Result{System: VX, Query: q}
	repo, err := vectorize.Open(d.RepoDir, vectorize.Options{PoolPages: d.h.Cfg.PoolPages})
	if err != nil {
		res.Fail, res.Err = "open failed", err
		return res
	}
	defer repo.Close()
	eng := core.NewEngine(repo.Skel, repo.Classes, repo.Vectors, repo.Syms, core.Options{})
	for _, p := range indexPaths {
		if _, err := eng.BuildVectorIndex(p); err != nil {
			res.Fail, res.Err = "index failed", err
			return res
		}
	}
	plan, err := qgraph.Build(xq.MustParse(QuerySources[q]))
	if err != nil {
		res.Fail, res.Err = "plan failed", err
		return res
	}
	start := time.Now()
	out, err := eng.Eval(context.Background(), plan)
	res.Elapsed = time.Since(start)
	if err != nil {
		res.Fail, res.Err = "eval failed", err
		return res
	}
	res.Results = rootChildren(out.Skel)
	return res
}

func (d *Dataset) runVXPlanned(q QueryID, opts core.Options, popts qgraph.Options) Result {
	res := Result{System: VX, Query: q}
	repo, err := vectorize.Open(d.RepoDir, vectorize.Options{PoolPages: d.h.Cfg.PoolPages})
	if err != nil {
		res.Fail, res.Err = "open failed", err
		return res
	}
	defer repo.Close()
	query, err := xq.Parse(QuerySources[q])
	if err != nil {
		res.Fail, res.Err = "parse failed", err
		return res
	}
	start := time.Now()
	plan, err := qgraph.BuildWithOptions(query, popts)
	if err != nil {
		res.Fail, res.Err = "plan failed", err
		return res
	}
	eng := core.NewEngine(repo.Skel, repo.Classes, repo.Vectors, repo.Syms, opts)
	out, err := eng.Eval(context.Background(), plan)
	res.Elapsed = time.Since(start)
	if err != nil {
		res.Fail, res.Err = "eval failed", err
		return res
	}
	res.Results = rootChildren(out.Skel)
	return res
}

func rootChildren(s *skeleton.Skeleton) int64 {
	var n int64
	for _, e := range s.Edges(s.Root) {
		n += e.Count
	}
	return n
}

// ---- GX ----

// runGX models the main-memory interpreter: it must parse and hold the
// whole document (failing above the memory budget), then evaluates
// node-at-a-time. Load time counts, as in the paper's report.
func (d *Dataset) runGX(q QueryID) Result {
	res := Result{System: GX, Query: q}
	if d.XMLBytes > d.h.Cfg.GXMaxBytes {
		res.Fail = FailOoM
		return res
	}
	query, err := xq.Parse(QuerySources[q])
	if err != nil {
		res.Fail, res.Err = "parse failed", err
		return res
	}
	start := time.Now()
	f, err := os.Open(d.XMLPath)
	if err != nil {
		res.Fail, res.Err = FailLoad, err
		return res
	}
	syms := xmlmodel.NewSymbols()
	root, err := xmlmodel.Parse(f, syms)
	f.Close()
	if err != nil {
		res.Fail, res.Err = FailLoad, err
		return res
	}
	ev := dom.NewEvaluator(root, syms)
	ev.Deadline = time.Now().Add(d.h.Cfg.Timeout)
	out, err := ev.Eval(query)
	res.Elapsed = time.Since(start)
	switch err {
	case nil:
		res.Results = int64(len(out.Kids))
	case dom.ErrTimeout:
		res.Fail = FailTimeout
	case dom.ErrBudget:
		res.Fail = FailOoM
	default:
		res.Fail, res.Err = "eval failed", err
	}
	return res
}

// ---- DS ----

type dsState struct {
	store *storage.Store
	ds    *docstore.Store
	fail  string
}

func (d *Dataset) dsLoad() *dsState {
	if d.ds != nil {
		return d.ds
	}
	d.ds = &dsState{}
	if d.XMLBytes > d.h.Cfg.DSMaxBytes {
		d.ds.fail = FailLoad
		return d.ds
	}
	dsDir := filepath.Join(d.h.Cfg.WorkDir, string(d.ID), "ds")
	os.RemoveAll(dsDir) // baselines are rebuilt per process (load-time work)
	st, err := storage.OpenStore(dsDir, d.h.Cfg.PoolPages)
	if err != nil {
		d.ds.fail = FailLoad
		return d.ds
	}
	f, err := os.Open(d.XMLPath)
	if err != nil {
		d.ds.fail = FailLoad
		return d.ds
	}
	syms := xmlmodel.NewSymbols()
	root, err := xmlmodel.Parse(f, syms)
	f.Close()
	if err != nil {
		d.ds.fail = FailLoad
		return d.ds
	}
	s, err := docstore.Build(st, root, syms, dsIndexPaths[d.ID])
	if err != nil {
		d.ds.fail = FailLoad
		return d.ds
	}
	d.ds.store, d.ds.ds = st, s
	return d.ds
}

func (d *Dataset) runDS(q QueryID) Result {
	res := Result{System: DS, Query: q}
	state := d.dsLoad()
	if state.fail != "" {
		res.Fail = state.fail
		return res
	}
	src := QuerySources[q]
	if ov, ok := dsQueryOverride[q]; ok {
		src = ov
	}
	query, err := xq.Parse(src)
	if err != nil {
		res.Fail, res.Err = "parse failed", err
		return res
	}
	start := time.Now()
	nodes, err := state.ds.Query(query)
	res.Elapsed = time.Since(start)
	if err == docstore.ErrNoXQuery {
		res.Fail = FailNoXQuery
		return res
	}
	if err != nil {
		res.Fail, res.Err = "eval failed", err
		return res
	}
	res.Results = int64(len(nodes))
	return res
}

// ---- CR ----

type crState struct {
	repo  *vectorize.Repository
	assoc *relational.Assoc
	fail  string
}

func (d *Dataset) crLoad() *crState {
	if d.cr != nil {
		return d.cr
	}
	d.cr = &crState{}
	repo, err := vectorize.Open(d.RepoDir, vectorize.Options{PoolPages: d.h.Cfg.PoolPages})
	if err != nil {
		d.cr.fail = FailLoad
		return d.cr
	}
	d.cr.repo = repo
	d.cr.assoc = relational.BuildAssoc(repo.Classes, repo.Vectors, repo.Syms)
	return d.cr
}

// runCR executes the hand-written association-mapping plans; the paper
// reports Monet numbers only for the XMark queries.
func (d *Dataset) runCR(q QueryID) Result {
	res := Result{System: CR, Query: q}
	if DatasetOf(q) != XK {
		res.Fail = FailNA
		return res
	}
	state := d.crLoad()
	if state.fail != "" {
		res.Fail = state.fail
		return res
	}
	a := state.assoc
	cls := state.repo.Classes
	start := time.Now()
	var count int64
	var err error
	switch q {
	case KQ1:
		// One binary-table scan (the dataguide shortcut).
		var oids []int64
		oids, err = a.SelectValues("/site/closed_auctions/closed_auction/price",
			func(v string) bool { return xq.Satisfies(v, xq.OpGe, "40") })
		count = int64(len(oids))
	case KQ2, KQ3:
		count, err = d.crPersonJoin(a, cls, q == KQ3)
	case KQ4:
		// Subtree retrieval: re-join associations per class per item —
		// the reconstruction penalty.
		item := cls.Resolve("/site/regions/australia/item")
		if item == skeleton.NoClass {
			break
		}
		n := cls.Count(item)
		for i := int64(0); i < n; i++ {
			if _, err = a.Reconstruct(item, i); err != nil {
				break
			}
			count++
		}
	}
	res.Elapsed = time.Since(start)
	if err != nil {
		res.Fail, res.Err = "eval failed", err
		return res
	}
	res.Results = count
	return res
}

// crPersonJoin is the binary-table plan for KQ2/KQ3: hash join of the
// bidder personref values against the person ids, optionally restricted
// by the income filter.
func (d *Dataset) crPersonJoin(a *relational.Assoc, cls *skeleton.Classes, incomeFilter bool) (int64, error) {
	refVec, err := a.Vecs.Vector("/site/open_auctions/open_auction/bidder/personref/@person")
	if err != nil {
		return 0, err
	}
	idVec, err := a.Vecs.Vector("/site/people/person/@id")
	if err != nil {
		return 0, err
	}
	allowed := map[int64]bool{}
	if incomeFilter {
		oids, err := a.SelectValues("/site/people/person/profile/@income",
			func(v string) bool { return xq.Satisfies(v, xq.OpGt, "50000") })
		if err != nil {
			return 0, err
		}
		incomeCls := cls.Resolve("/site/people/person/profile/@income")
		personCls := cls.Resolve("/site/people/person")
		for _, p := range a.AncestorsAt(incomeCls, personCls, oids) {
			allowed[p] = true
		}
	}
	var count int64
	err = relational.HashJoin(idVec, refVec, func(lrow, rrow int64) error {
		if incomeFilter && !allowed[lrow] {
			return nil
		}
		count++
		return nil
	})
	return count, err
}

// ---- RR ----

type rrState struct {
	store    *storage.Store
	photoobj *relational.RowTable
	neigh    *relational.RowTable
	modeIdx  *relational.SortedIndex
	neighIdx *relational.SortedIndex
	fail     string
}

// rrLoad loads the SkyServer tables into the row store from the same
// generator stream (identical data to the XML) and builds the SQ3 indexes
// — load-time work, as the paper's "rigorously tuned" SQL Server setup.
func (d *Dataset) rrLoad() *rrState {
	if d.rr != nil {
		return d.rr
	}
	d.rr = &rrState{}
	rrDir := filepath.Join(d.h.Cfg.WorkDir, string(d.ID), "rr")
	os.RemoveAll(rrDir) // baselines are rebuilt per process (load-time work)
	st, err := storage.OpenStore(rrDir, d.h.Cfg.PoolPages)
	if err != nil {
		d.rr.fail = FailLoad
		return d.rr
	}
	d.rr.store = st
	cfg := d.h.Cfg
	gen := skyGenFor(cfg)
	photoobj, pw, err := relational.CreateRowTable(st, "photoobj", gen.ColumnNames())
	if err != nil {
		d.rr.fail = FailLoad
		return d.rr
	}
	if err := loadSkyRows(gen, pw); err != nil {
		d.rr.fail = FailLoad
		return d.rr
	}
	neigh, nw, err := relational.CreateRowTable(st, "neighbors", []string{"objid", "neighborobjid", "distance"})
	if err != nil {
		d.rr.fail = FailLoad
		return d.rr
	}
	if err := loadNeighborRows(cfg, nw); err != nil {
		d.rr.fail = FailLoad
		return d.rr
	}
	d.rr.photoobj, d.rr.neigh = photoobj, neigh

	// Indexes: photoobj.mode (the selective predicate) and neighbors.objid
	// (the join target).
	modeCol, err := columnOf(photoobj, "mode")
	if err == nil {
		d.rr.modeIdx, err = relational.BuildIndex(modeCol)
	}
	if err != nil {
		d.rr.fail = FailLoad
		return d.rr
	}
	objidCol, err := columnOf(neigh, "objid")
	if err == nil {
		d.rr.neighIdx, err = relational.BuildIndex(objidCol)
	}
	if err != nil {
		d.rr.fail = FailLoad
	}
	return d.rr
}

func (d *Dataset) runRR(q QueryID) Result {
	res := Result{System: RR, Query: q}
	if DatasetOf(q) != SS {
		res.Fail = FailNA
		return res
	}
	state := d.rrLoad()
	if state.fail != "" {
		res.Fail = state.fail
		return res
	}
	t := state.photoobj
	ct := func(name string) int { return t.Col(name) }
	start := time.Now()
	var count int64
	var err error
	switch q {
	case SQ1:
		err = t.Scan(func(_ int64, vals []string) error {
			if vals[ct("objtype")] == "QSO" {
				_ = vals[ct("ra")] + vals[ct("dec")] + vals[ct("objid")]
				count++
			}
			return nil
		})
	case SQ2:
		err = t.Scan(func(_ int64, vals []string) error {
			if vals[ct("objtype")] == "GALAXY" {
				count++
			}
			return nil
		})
	case SQ3:
		// Index plan: mode index -> outer rowids; point-fetch objid;
		// probe the neighbors objid index.
		outer := state.modeIdx.Lookup("1")
		objidCol := ct("objid")
		for _, rid := range outer {
			vals, ferr := t.Get(rid)
			if ferr != nil {
				err = ferr
				break
			}
			count += int64(len(state.neighIdx.Lookup(vals[objidCol])))
		}
	case SQ4:
		err = t.Scan(func(_ int64, vals []string) error {
			if vals[ct("objtype")] == "QSO" && vals[ct("mode")] == "2" {
				count++
			}
			return nil
		})
	}
	res.Elapsed = time.Since(start)
	if err != nil {
		res.Fail, res.Err = "eval failed", err
		return res
	}
	res.Results = count
	return res
}

// Close releases baseline state held by the harness's datasets.
func (h *Harness) Close() error {
	var first error
	for _, d := range h.datasets {
		if d.ds != nil && d.ds.store != nil {
			if err := d.ds.store.Close(); err != nil && first == nil {
				first = err
			}
		}
		if d.cr != nil && d.cr.repo != nil {
			if err := d.cr.repo.Close(); err != nil && first == nil {
				first = err
			}
		}
		if d.rr != nil && d.rr.store != nil {
			if err := d.rr.store.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// columnOf materializes one column of a row table as an in-memory vector
// for index building (load-time work).
func columnOf(t *relational.RowTable, name string) (*memColumn, error) {
	ci := t.Col(name)
	if ci < 0 {
		return nil, fmt.Errorf("bench: no column %q", name)
	}
	m := &memColumn{}
	err := t.Scan(func(_ int64, vals []string) error {
		m.vals = append(m.vals, vals[ci])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

type memColumn struct{ vals []string }

func (m *memColumn) Len() int64 { return int64(len(m.vals)) }

func (m *memColumn) Scan(start, n int64, fn func(pos int64, val []byte) error) error {
	for i := start; i < start+n; i++ {
		if err := fn(i, []byte(m.vals[i])); err != nil {
			return err
		}
	}
	return nil
}
