package bench

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"vxml/internal/core"
	"vxml/internal/naive"
	"vxml/internal/qgraph"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
	"vxml/internal/xq"
)

// DatasetStats is one row of Table 1.
type DatasetStats struct {
	ID        DatasetID
	XMLBytes  int64
	Nodes     int64 // expanded document nodes (elements + text markers)
	SkelNodes int
	SkelEdges int
	Vectors   int
	VecBytes  int64
}

// Table1 computes the dataset-statistics table. As in the paper, the
// XMark row appears at two scale factors (the configured one and 10x it).
func (h *Harness) Table1() ([]DatasetStats, error) {
	var out []DatasetStats
	type row struct {
		id    DatasetID
		label string
		scale float64
	}
	rows := []row{
		{XK, fmt.Sprintf("XK(SF=%g)", h.Cfg.XKScale), 0},
		{XK, fmt.Sprintf("XK(SF=%g)", h.Cfg.XKScale*10), h.Cfg.XKScale * 10},
		{TB, "TB", 0},
		{ML, "ML", 0},
		{SS, "SS", 0},
	}
	for _, rw := range rows {
		d, err := h.datasetScaled(rw.id, rw.scale)
		if err != nil {
			return nil, err
		}
		repo, err := vectorize.Open(d.RepoDir, vectorize.Options{PoolPages: h.Cfg.PoolPages})
		if err != nil {
			return nil, err
		}
		set, ok := repo.Vectors.(*vector.DiskSet)
		var vecBytes int64
		if ok {
			vecBytes = set.CatalogBytes()
		}
		out = append(out, DatasetStats{
			ID:        DatasetID(rw.label),
			XMLBytes:  d.XMLBytes,
			Nodes:     repo.Skel.ExpandedSize(),
			SkelNodes: repo.Skel.NumNodes(),
			SkelEdges: repo.Skel.NumEdges(),
			Vectors:   len(repo.Vectors.Names()),
			VecBytes:  vecBytes,
		})
		repo.Close()
	}
	return out, nil
}

// PrintTable1 renders Table 1.
func PrintTable1(w io.Writer, stats []DatasetStats) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tXML Size\t# Nodes\t# Skel. Nodes\t# Skel. Edges\t# Vectors\tVectors' Size")
	for _, s := range stats {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%s\n",
			s.ID, sizeStr(s.XMLBytes), countStr(s.Nodes), s.SkelNodes, s.SkelEdges, s.Vectors, sizeStr(s.VecBytes))
	}
	tw.Flush()
}

// Table2 runs every (query, system) pair and reports which fail and why.
func (h *Harness) Table2() ([]Result, error) {
	var out []Result
	for _, q := range AllQueries {
		for _, sys := range AllSystems {
			out = append(out, h.Run(sys, q))
		}
	}
	return out, nil
}

// PrintTable2 renders the failing-system view of Table 2.
func PrintTable2(w io.Writer, results []Result) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Query\tDataset\tFailing system (reason)")
	byQuery := map[QueryID][]Result{}
	for _, r := range results {
		byQuery[r.Query] = append(byQuery[r.Query], r)
	}
	for _, q := range AllQueries {
		var fails string
		for _, r := range byQuery[q] {
			if r.OK() || r.Fail == FailNA {
				continue
			}
			if fails != "" {
				fails += ", "
			}
			fails += fmt.Sprintf("%s (%s)", r.System, r.Fail)
		}
		if fails == "" {
			fails = "—"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", q, DatasetOf(q), fails)
	}
	tw.Flush()
}

// Table3 is Table 2's data arranged as the timing matrix.
func PrintTable3(w io.Writer, results []Result) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "System")
	for _, q := range AllQueries {
		fmt.Fprintf(tw, "\t%s", q)
	}
	fmt.Fprintln(tw)
	cell := map[SystemID]map[QueryID]Result{}
	for _, r := range results {
		if cell[r.System] == nil {
			cell[r.System] = map[QueryID]Result{}
		}
		cell[r.System][r.Query] = r
	}
	for _, sys := range AllSystems {
		fmt.Fprintf(tw, "%s", sys)
		for _, q := range AllQueries {
			r, ok := cell[sys][q]
			switch {
			case !ok:
				fmt.Fprint(tw, "\t")
			case r.Fail == FailNA:
				fmt.Fprint(tw, "\tN/A")
			case !r.OK():
				fmt.Fprintf(tw, "\t[%s]", r.Fail)
			default:
				fmt.Fprintf(tw, "\t%s", durStr(r.Elapsed))
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Fig8Point is one point of the Figure 8 scalability series.
type Fig8Point struct {
	Scale   float64
	Query   QueryID
	Elapsed time.Duration
	Results int64
}

// Figure8 sweeps the XMark scale factor for KQ1–KQ4 on VX.
func (h *Harness) Figure8(scales []float64) ([]Fig8Point, error) {
	var out []Fig8Point
	for _, sf := range scales {
		d, err := h.datasetScaled(XK, sf)
		if err != nil {
			return nil, err
		}
		for _, q := range []QueryID{KQ1, KQ2, KQ3, KQ4} {
			r := d.runVX(q, core.Options{})
			if !r.OK() {
				return nil, fmt.Errorf("bench: fig8 %s at SF %g: %s (%w)", q, sf, r.Fail, r.Err)
			}
			out = append(out, Fig8Point{Scale: sf, Query: q, Elapsed: r.Elapsed, Results: r.Results})
		}
	}
	return out, nil
}

// PrintFigure8 renders the scalability series, one row per scale factor.
func PrintFigure8(w io.Writer, pts []Fig8Point) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "XMark SF\tKQ1\tKQ2\tKQ3\tKQ4")
	byScale := map[float64]map[QueryID]Fig8Point{}
	var scales []float64
	for _, p := range pts {
		if byScale[p.Scale] == nil {
			byScale[p.Scale] = map[QueryID]Fig8Point{}
			scales = append(scales, p.Scale)
		}
		byScale[p.Scale][p.Query] = p
	}
	for _, sf := range scales {
		fmt.Fprintf(tw, "%g", sf)
		for _, q := range []QueryID{KQ1, KQ2, KQ3, KQ4} {
			fmt.Fprintf(tw, "\t%s", durStr(byScale[sf][q].Elapsed))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// AblationResult compares engine configurations on one query.
type AblationResult struct {
	Name    string
	Query   QueryID
	Elapsed time.Duration
	Results int64
	Fail    string
}

// Ablations measures the design choices DESIGN.md calls out: graph
// reduction vs the naive §3.2 baseline, run-compression on/off, and
// merge joins vs the filter-only literal reading.
func (h *Harness) Ablations() ([]AblationResult, error) {
	var out []AblationResult
	cases := []struct {
		name string
		q    QueryID
		run  func(d *Dataset) Result
	}{
		{"VX/graph-reduction", SQ1, func(d *Dataset) Result { return d.runVX(SQ1, core.Options{}) }},
		{"VX/no-run-compression", SQ1, func(d *Dataset) Result { return d.runVX(SQ1, core.Options{NoRunCompression: true}) }},
		{"naive/decompress-eval-revectorize", SQ1, func(d *Dataset) Result { return d.runNaive(SQ1) }},
		{"VX/graph-reduction", KQ2, func(d *Dataset) Result { return d.runVX(KQ2, core.Options{}) }},
		{"VX/filter-only-joins", KQ2, func(d *Dataset) Result { return d.runVX(KQ2, core.Options{FilterOnlyJoins: true}) }},
		{"naive/decompress-eval-revectorize", KQ2, func(d *Dataset) Result { return d.runNaive(KQ2) }},
		{"VX/selection-first", KQ3, func(d *Dataset) Result { return d.runVX(KQ3, core.Options{}) }},
		{"VX/source-order", KQ3, func(d *Dataset) Result {
			return d.runVXPlanned(KQ3, core.Options{}, qgraph.Options{SourceOrder: true})
		}},
		{"VX/no-index", SQ3, func(d *Dataset) Result { return d.runVX(SQ3, core.Options{}) }},
		{"VX/vector-index", SQ3, func(d *Dataset) Result {
			return d.runVXIndexed(SQ3, []string{
				"/skyserver/photoobj/row/mode",
				"/skyserver/neighbors/row/objid",
			})
		}},
	}
	for _, c := range cases {
		d, err := h.Dataset(DatasetOf(c.q))
		if err != nil {
			return nil, err
		}
		r := c.run(d)
		out = append(out, AblationResult{Name: c.name, Query: c.q, Elapsed: r.Elapsed, Results: r.Results, Fail: r.Fail})
	}
	return out, nil
}

// runNaive evaluates with the §3.2 decompress-evaluate-revectorize
// baseline over the same repository.
func (d *Dataset) runNaive(q QueryID) Result {
	res := Result{System: "naive", Query: q}
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
	out, err := naive.Eval(repo.Skel, repo.Classes, repo.Vectors, repo.Syms, query, 0)
	res.Elapsed = time.Since(start)
	if err != nil {
		res.Fail, res.Err = "eval failed", err
		return res
	}
	res.Results = rootChildren(out.Skel)
	return res
}

// PrintAblations renders the ablation comparison.
func PrintAblations(w io.Writer, rs []AblationResult) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Query\tConfiguration\tTime\tResults")
	for _, r := range rs {
		if r.Fail != "" {
			fmt.Fprintf(tw, "%s\t%s\t[%s]\t\n", r.Query, r.Name, r.Fail)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\n", r.Query, r.Name, durStr(r.Elapsed), r.Results)
	}
	tw.Flush()
}

func sizeStr(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

func countStr(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	}
	return fmt.Sprint(n)
}

func durStr(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	}
	return fmt.Sprintf("%dµs", d.Microseconds())
}

// Stdout is a small convenience for the CLI.
var Stdout io.Writer = os.Stdout
