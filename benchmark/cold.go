package main

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"vxml/internal/bench"
	"vxml/internal/core"
	"vxml/internal/qgraph"
	"vxml/internal/vectorize"
	"vxml/internal/xq"
)

// setupInfo is what a set-up pass learned, for the per-layer metrics.
type setupInfo struct {
	XMLBytes int64
	CreateNS int64    // inside vectorize.Create
	XMLPaths []string // the generated documents
}

// coldWorkload is cold_regular and cold_irregular: one op runs each of
// the workload's queries once, each against a freshly opened repository —
// Open, xq.Parse, qgraph.Build, Engine.Eval, result XML, Close — the way
// one `vxstore query` process does.
type coldWorkload struct {
	s      *schedule
	data   []dataset
	pool   int
	dir    string
	opts   vectorize.Options
	dataOf []dataset // per input: the dataset its query runs on
}

func newColdWorkload(s *schedule, data []dataset, pool int) (*coldWorkload, error) {
	w := &coldWorkload{s: s, data: data, pool: pool}
	for _, label := range s.Labels {
		id := string(bench.DatasetOf(bench.QueryID(label)))
		i := slices.IndexFunc(data, func(d dataset) bool { return d.ID == id })
		if i < 0 {
			return nil, fmt.Errorf("%s needs dataset %s", label, id)
		}
		w.dataOf = append(w.dataOf, data[i])
	}
	return w, nil
}

func (w *coldWorkload) setUp(dir string, tr *tracer) (setupInfo, error) {
	return buildAll(dir, w.data, vectorize.Options{PoolPages: w.pool, FS: tr.fs()})
}

// buildAll generates and vectorizes each dataset under dir.
func buildAll(dir string, datasets []dataset, opts vectorize.Options) (setupInfo, error) {
	var info setupInfo
	for _, d := range datasets {
		n, createNS, err := d.build(dir, opts)
		if err != nil {
			return info, err
		}
		info.XMLBytes += n
		info.CreateNS += createNS
		xmlPath, _ := d.paths(dir)
		info.XMLPaths = append(info.XMLPaths, xmlPath)
	}
	return info, nil
}

func (w *coldWorkload) open(dir string, tr *tracer) error {
	w.dir = dir
	w.opts = vectorize.Options{PoolPages: w.pool, FS: tr.fs()}
	return nil
}

func (w *coldWorkload) do(c *client, i int, tr *tracer) error {
	for _, in := range w.s.Ops[i] {
		_, repoDir := w.dataOf[in].paths(w.dir)
		xml, err := coldQuery(repoDir, w.opts, w.s.Inputs[in], w.s.Labels[in], tr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.s.Labels[in], err)
		}
		c.outs = append(c.outs, output{Input: in, Data: []byte(xml)})
	}
	return nil
}

// coldQuery answers one query from a closed repository and returns the
// result XML.
func coldQuery(repoDir string, opts vectorize.Options, query, label string, tr *tracer) (string, error) {
	t := tr.begin()
	repo, err := vectorize.Open(repoDir, opts)
	tr.end(spOpen, t)
	if err != nil {
		return "", err
	}
	xml, err := evalXML(repo, query, label, tr)
	t = tr.begin()
	cerr := repo.Close()
	tr.end(spClose, t)
	if err != nil {
		return "", err
	}
	return xml, cerr
}

// evalXML parses, plans and evaluates query over an open repository and
// serializes the result.
func evalXML(repo *vectorize.Repository, query, label string, tr *tracer) (string, error) {
	t := tr.begin()
	parsed, err := xq.Parse(query)
	tr.end(spParse, t)
	if err != nil {
		return "", err
	}
	t = tr.begin()
	plan, err := qgraph.Build(parsed)
	tr.end(spBuild, t)
	if err != nil {
		return "", err
	}
	if tr != nil {
		tr.planOps(len(plan.Ops))
	}
	// What core.NewRepoEngine builds, with the vector set wrapped when
	// tracing.
	eng := core.NewEngine(repo.Skel, repo.Classes, tr.set(repo.Vectors), repo.Syms, core.Options{})
	eng.Health = repo.Health
	t = tr.begin()
	res, err := eng.Eval(context.Background(), plan)
	tr.endEval(label, t)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	t = tr.begin()
	err = vectorize.ReconstructXML(res.Skel, res.Classes, res.Vectors, res.Syms, &b)
	tr.end(spXML, t)
	return b.String(), err
}

func (w *coldWorkload) close() error { return nil }

func (w *coldWorkload) clients() int { return 1 }

func (w *coldWorkload) xmlAppended() int64 { return 0 }

func (w *coldWorkload) skeletonUses(dir string) map[string][2]float64 {
	// Every query of an op opens its repository once: one Decode and one
	// NewClasses each.
	uses := map[string][2]float64{}
	for _, d := range w.dataOf {
		_, repoDir := d.paths(dir)
		u := uses[repoDir]
		uses[repoDir] = [2]float64{u[0] + 1, u[1] + 1}
	}
	return uses
}

func (w *coldWorkload) datasets() []dataset { return w.data }

func repoDirs(dir string, datasets []dataset) []string {
	var out []string
	for _, d := range datasets {
		_, repoDir := d.paths(dir)
		out = append(out, repoDir)
	}
	return out
}

// verify checks the first output of every query against the reference.
func (w *coldWorkload) verify(dir string, v *verifier, orc *oracle) error {
	for in := range w.s.Inputs {
		first := v.first[in].Load()
		if first == nil {
			return fmt.Errorf("%s never ran", w.s.Labels[in])
		}
		if err := orc.check(w.dataOf[in], dir, w.s.Inputs[in], first.Data); err != nil {
			return fmt.Errorf("%s: %w", w.s.Labels[in], err)
		}
	}
	return nil
}
