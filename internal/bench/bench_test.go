package bench

import (
	"strings"
	"testing"

	"vxml/internal/core"
)

func quickHarness(t testing.TB) *Harness {
	t.Helper()
	h := New(Quick(t.TempDir()))
	t.Cleanup(func() { h.Close() })
	return h
}

func TestTable1Shapes(t *testing.T) {
	h := quickHarness(t)
	stats, err := h.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 5 { // XK at two scale factors + TB, ML, SS
		t.Fatalf("stats = %d rows", len(stats))
	}
	byID := map[DatasetID]DatasetStats{}
	for i, s := range stats {
		id := AllDatasets[0]
		switch i {
		case 2:
			id = TB
		case 3:
			id = ML
		case 4:
			id = SS
		}
		if i != 1 { // keep the base-scale XK row for XK
			byID[id] = s
		}
		if s.XMLBytes == 0 || s.Nodes == 0 || s.Vectors == 0 {
			t.Errorf("%s: empty stats %+v", s.ID, s)
		}
	}
	// The two XK rows scale: SF=10x has ~10x the nodes.
	if stats[1].Nodes < 5*stats[0].Nodes {
		t.Errorf("XK SF sweep: %d -> %d nodes, want ~10x", stats[0].Nodes, stats[1].Nodes)
	}
	// The paper's structural contrasts must hold at any scale:
	// TB is the most irregular (most vectors, worst node/skeleton ratio);
	// SS has a constant tiny skeleton and exactly Cols+3 vectors.
	if byID[TB].Vectors <= byID[ML].Vectors || byID[TB].Vectors <= byID[XK].Vectors {
		t.Errorf("TB should have the most vectors: TB=%d XK=%d ML=%d", byID[TB].Vectors, byID[XK].Vectors, byID[ML].Vectors)
	}
	wantSS := h.Cfg.SSCols + 3 // photoobj columns + neighbors' 3 columns
	if byID[SS].Vectors != wantSS {
		t.Errorf("SS vectors = %d, want %d", byID[SS].Vectors, wantSS)
	}
	if byID[SS].SkelNodes > h.Cfg.SSCols+10 {
		t.Errorf("SS skeleton = %d nodes, want about %d", byID[SS].SkelNodes, h.Cfg.SSCols+6)
	}
	ratioSS := float64(byID[SS].Nodes) / float64(byID[SS].SkelNodes)
	ratioTB := float64(byID[TB].Nodes) / float64(byID[TB].SkelNodes)
	if ratioSS < 20*ratioTB {
		t.Errorf("SS compression ratio %.1f should dwarf TB's %.1f", ratioSS, ratioTB)
	}
	var out strings.Builder
	PrintTable1(&out, stats)
	if !strings.Contains(out.String(), "Skel. Nodes") {
		t.Errorf("table output:\n%s", out.String())
	}
}

// TestWorkloadAllQueriesRunOnVX: every one of the thirteen queries
// evaluates successfully on VX and returns a nonzero result.
func TestWorkloadAllQueriesRunOnVX(t *testing.T) {
	h := quickHarness(t)
	for _, q := range AllQueries {
		r := h.Run(VX, q)
		if !r.OK() {
			t.Errorf("%s: %s (%v)", q, r.Fail, r.Err)
			continue
		}
		if r.Results == 0 {
			t.Errorf("%s: zero results (workload should be non-trivial)", q)
		}
	}
}

// TestTable2FailurePattern: with the paper's failure models scaled to the
// quick sizes, DS fails the XQuery-only queries.
func TestTable2FailurePattern(t *testing.T) {
	h := quickHarness(t)
	for _, q := range []QueryID{KQ2, KQ3, TQ2, TQ3, MQ2} {
		r := h.Run(DS, q)
		if r.Fail != FailNoXQuery {
			t.Errorf("DS on %s: fail = %q, want %q", q, r.Fail, FailNoXQuery)
		}
	}
	for _, q := range []QueryID{KQ1, KQ4, TQ1, MQ1} {
		r := h.Run(DS, q)
		if !r.OK() {
			t.Errorf("DS on %s failed: %s (%v)", q, r.Fail, r.Err)
		}
	}
	// CR and RR only cover their datasets.
	if r := h.Run(CR, SQ1); r.Fail != FailNA {
		t.Errorf("CR on SQ1 = %q, want N/A", r.Fail)
	}
	if r := h.Run(RR, KQ1); r.Fail != FailNA {
		t.Errorf("RR on KQ1 = %q, want N/A", r.Fail)
	}
}

// TestGXOoMModel: shrinking the GX budget below the dataset size yields
// the paper's OoM failure.
func TestGXOoMModel(t *testing.T) {
	cfg := Quick(t.TempDir())
	cfg.GXMaxBytes = 1024
	h := New(cfg)
	defer h.Close()
	if r := h.Run(GX, MQ1); r.Fail != FailOoM {
		t.Errorf("GX fail = %q, want OoM", r.Fail)
	}
}

// TestCrossSystemCardinalities: where multiple systems can run a query,
// they agree on the result cardinality.
func TestCrossSystemCardinalities(t *testing.T) {
	h := quickHarness(t)
	// KQ1: VX vs GX vs DS vs CR.
	counts := map[SystemID]int64{}
	for _, sys := range []SystemID{VX, GX, DS, CR} {
		r := h.Run(sys, KQ1)
		if !r.OK() {
			t.Fatalf("%s on KQ1: %s (%v)", sys, r.Fail, r.Err)
		}
		counts[sys] = r.Results
	}
	if counts[GX] != counts[VX] || counts[DS] != counts[VX] || counts[CR] != counts[VX] {
		t.Errorf("KQ1 counts disagree: %v", counts)
	}
	// KQ2: VX vs GX vs CR (join cardinality).
	for _, sys := range []SystemID{GX, CR} {
		r := h.Run(sys, KQ2)
		vx := h.Run(VX, KQ2)
		if !r.OK() || !vx.OK() {
			t.Fatalf("KQ2: %s=%v vx=%v", sys, r.Fail, vx.Fail)
		}
		if r.Results != vx.Results {
			t.Errorf("KQ2: %s=%d, VX=%d", sys, r.Results, vx.Results)
		}
	}
	// SQ1/SQ3/SQ4: VX vs RR.
	for _, q := range []QueryID{SQ1, SQ3, SQ4} {
		rr := h.Run(RR, q)
		vx := h.Run(VX, q)
		if !rr.OK() || !vx.OK() {
			t.Fatalf("%s: rr=%v vx=%v", q, rr.Fail, vx.Fail)
		}
		want := vx.Results
		if q == SQ1 {
			// VX returns 3 items per matching row.
			want = vx.Results / 3
		}
		if q == SQ4 {
			want = vx.Results / 2
		}
		if rr.Results != want {
			t.Errorf("%s: RR=%d, VX rows=%d", q, rr.Results, want)
		}
	}
}

func TestFigure8Linear(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep")
	}
	h := quickHarness(t)
	pts, err := h.Figure8([]float64{0.1, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("points = %d", len(pts))
	}
	// Result counts scale with the data.
	byQ := map[QueryID][]Fig8Point{}
	for _, p := range pts {
		byQ[p.Query] = append(byQ[p.Query], p)
	}
	for q, ps := range byQ {
		if ps[1].Results <= ps[0].Results {
			t.Errorf("%s: results did not grow with scale: %d -> %d", q, ps[0].Results, ps[1].Results)
		}
	}
	var out strings.Builder
	PrintFigure8(&out, pts)
	if !strings.Contains(out.String(), "XMark SF") {
		t.Errorf("fig8 output:\n%s", out.String())
	}
}

func TestAblationsRun(t *testing.T) {
	h := quickHarness(t)
	rs, err := h.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 10 {
		t.Fatalf("ablations = %d", len(rs))
	}
	// Same query, different configuration => same result count (except
	// filter-only joins, which intentionally over-produce).
	byQ := map[QueryID]map[string]AblationResult{}
	for _, r := range rs {
		if r.Fail != "" {
			t.Errorf("%s/%s failed: %s", r.Query, r.Name, r.Fail)
			continue
		}
		if byQ[r.Query] == nil {
			byQ[r.Query] = map[string]AblationResult{}
		}
		byQ[r.Query][r.Name] = r
	}
	sq1 := byQ[SQ1]
	if sq1["VX/graph-reduction"].Results != sq1["naive/decompress-eval-revectorize"].Results {
		t.Errorf("SQ1 ablation counts differ: %+v", sq1)
	}
	kq2 := byQ[KQ2]
	if kq2["VX/graph-reduction"].Results != kq2["naive/decompress-eval-revectorize"].Results {
		t.Errorf("KQ2 ablation counts differ: %+v", kq2)
	}
	if kq2["VX/filter-only-joins"].Results < kq2["VX/graph-reduction"].Results {
		t.Errorf("filter-only joins should over-produce or match: %+v", kq2)
	}
}

// TestVXBeatsNaiveOnSelectProject: the headline claim at quick scale —
// graph reduction beats decompress-evaluate-revectorize on the wide-table
// select/project, because it reads 3 of 40 columns.
func TestVXBeatsNaiveOnSelectProject(t *testing.T) {
	h := quickHarness(t)
	d, err := h.Dataset(SS)
	if err != nil {
		t.Fatal(err)
	}
	vx := d.runVX(SQ1, core.Options{})
	nv := d.runNaive(SQ1)
	if !vx.OK() || !nv.OK() {
		t.Fatalf("vx=%v naive=%v", vx.Fail, nv.Fail)
	}
	if vx.Elapsed >= nv.Elapsed {
		t.Errorf("VX (%v) not faster than naive (%v) on SQ1", vx.Elapsed, nv.Elapsed)
	}
}
