package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"vxml/internal/xq"
)

// smokeConfig is one run at the tests' sizes.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	orc, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	return config{Workload: workload, Seed: 7, Seconds: 1, Trace: trace, Sizes: smoke, WorkDir: t.TempDir(), Oracle: orc}
}

// Every workload runs end to end at smoke size, untraced and traced, with
// no failed op, verified outputs, and exactly the declared metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(smokeConfig(t, wl.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, correct %v: %v",
					wl.Name, trace, res.Attempted, res.Failed, res.Correct, res.Notes)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", wl.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not reported", wl.Name, trace, d.Name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) || (!trace && v <= 0) {
					t.Errorf("%s trace=%v: %s = %v", wl.Name, trace, d.Name, v)
				}
			}
		}
	}
}

// BENCHMARK.json is the rendering of the metric tables, so the names and
// units a run prints are the ones it declares.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// The tail percentile always has at least ten samples beyond it, from the
// smallest op count a standard run has, and p99 a thousand.
func TestTailRuleLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{50, 54, 99, 100, 6000, 99999, 100000, 200000} {
		q := tailQuantile(n)
		want := 10
		if q == 0.99 {
			want = 1000
		}
		if beyond := n - int(math.Ceil(q*float64(n))); beyond < want {
			t.Errorf("n=%d: p%.0f leaves %d samples beyond, want %d", n, q*100, beyond, want)
		}
	}
	for name, rate := range standard.OpsPerSecond {
		if n := int(math.Round(rate * runSeconds)); n < 50 {
			t.Errorf("%s: %d timed ops at standard size; p80 needs 50", name, n)
		}
	}
}

// An op whose output does not match the expected digest is a failed op
// and earns no latency sample.
func TestWrongDigestIsAFailedOp(t *testing.T) {
	cfg := smokeConfig(t, "cold_irregular", false)
	s, err := newSchedule(cfg.Workload, cfg.Sizes, cfg.Seconds, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload(cfg.Workload, cfg.Sizes, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.setUp(cfg.WorkDir, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.open(cfg.WorkDir, nil); err != nil {
		t.Fatal(err)
	}
	r := &runner{w: w, s: s, v: newVerifier(len(s.Inputs))}
	r.v.first[0].Store(&firstSeen{Data: "not what TQ1 returns"})
	res := r.timed(0, len(s.Ops), 1)
	if res.Attempted != len(s.Ops) || res.Failed != len(s.Ops) || len(res.Latencies) != 0 {
		t.Errorf("attempted %d, failed %d, %d latency samples; want every one of %d ops failed",
			res.Attempted, res.Failed, len(res.Latencies), len(s.Ops))
	}

	// The same ops against an honest table all pass.
	r = &runner{w: w, s: s, v: newVerifier(len(s.Inputs))}
	res = r.timed(0, len(s.Ops), 1)
	if res.Failed != 0 || len(res.Latencies) != len(s.Ops) {
		t.Errorf("honest run: failed %d, %d samples: %v", res.Failed, len(res.Latencies), res.FirstErr)
	}
}

// One seed, one schedule, byte for byte; another seed, another schedule.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloads {
		gen := func(seed int64) []byte {
			s, err := newSchedule(wl.Name, smoke, 2, seed)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		a, b, c := gen(11), gen(11), gen(12)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two schedules from one seed differ", wl.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 11 and 12 give the same schedule", wl.Name)
		}
	}
}

// The text population is distinct texts, and a re-spelling shares its
// original's canonical form (so only the canonical plan cache can hit).
func TestServeTexts(t *testing.T) {
	texts, labels := serveTexts(standard.ServeTexts)
	if len(texts) != standard.ServeTexts || len(labels) != len(texts) {
		t.Fatalf("%d texts, %d labels, want %d", len(texts), len(labels), standard.ServeTexts)
	}
	canon := map[string]int{}
	seen := map[string]bool{}
	for _, q := range texts {
		if seen[q] {
			t.Fatalf("text %q appears twice", q)
		}
		seen[q] = true
		parsed, err := xq.Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		canon[parsed.Canonical()]++
	}
	const hot, spellings = 16, 3
	if want := len(texts) - hot*spellings; len(canon) != want {
		t.Errorf("%d canonical forms, want %d (%d texts less %d re-spellings)", len(canon), want, len(texts), hot*spellings)
	}
}

// With one client and one seed, the counts a traced run reports repeat
// exactly.
func TestCountersRepeat(t *testing.T) {
	counters := []string{
		"storage.pages_read_per_op", "storage.pool_misses_per_op",
		"storage.fs_opens_per_op", "storage.fs_reads_per_op", "storage.fs_read_bytes_per_op",
		"storage.fs_syncs", "storage.fs_syncs_per_op",
		"vector.opens_per_op", "vector.values_per_op", "vector.value_bytes_per_op",
		"core.values_scanned_per_op", "core.rows_produced_per_op", "core.tuples_per_op",
		"core.runs_expanded_per_op", "qgraph.plan_ops_per_op",
		"vectorize.vectors", "vectorize.disk_bytes", "skeleton.nodes", "skeleton.edges", "skeleton.classes",
	}
	// How many pages a build writes back does not repeat once the vectors
	// outgrow the pool (cold_regular's do): which dirty page an eviction
	// picks varies from run to run. Where the pool holds everything, the
	// write counts repeat too.
	writes := []string{"storage.pages_written", "storage.fs_writes", "storage.fs_write_bytes_per_xml_byte"}
	for _, name := range []string{"cold_regular", "ingest_append"} {
		counters := counters
		if name == "ingest_append" {
			counters = append(append([]string(nil), counters...), writes...)
		}
		var runs [2]*result
		for i := range runs {
			res, err := run(smokeConfig(t, name, true))
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = res
		}
		for _, c := range counters {
			if a, b := runs[0].Metrics[c], runs[1].Metrics[c]; a != b {
				t.Errorf("%s: %s = %v, then %v", name, c, a, b)
			}
		}
	}
}

// However spans overlap, an op's wall time is split among them exactly.
func TestSelfTimesSumToTheOp(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		// op 0: Eval holds two scans that overlap (two workers), one of
		// them holding a read; then a serialize call after Eval.
		{Op: 0, Name: spFSReadAt, Start: 25, End: 35},
		{Op: 0, Name: spScan, Start: 20, End: 60},
		{Op: 0, Name: spScan, Start: 40, End: 80},
		{Op: 0, Name: spEval, Start: 10, End: 90},
		{Op: 0, Name: spXML, Start: 90, End: 100},
		{Op: 0, Name: spOp, Start: 0, End: 110},
		// op 1: nothing but the op.
		{Op: 1, Name: spOp, Start: 200, End: 250},
	}
	for i := range tr.spans {
		tr.spans[i].Parent = -1
	}
	a := tr.analyse()
	var sum int64
	for _, ns := range a.self {
		sum += ns
	}
	if a.opNS != 160 || sum != a.opNS {
		t.Errorf("ops total %d, self times total %d, want both 160", a.opNS, sum)
	}
	// Eval alone: 10-20 and 80-90. Scans: 20-25, 35-40, half of nothing
	// else (the read is inside the first scan only), 40-60 shared, 60-80.
	want := map[spanName]int64{spOp: 10 + 10 + 50, spEval: 20, spXML: 10, spFSReadAt: 10, spScan: 5 + 5 + 20 + 20}
	for name, ns := range want {
		if a.self[name] != ns {
			t.Errorf("self time of %s = %d, want %d", spanNames[name], a.self[name], ns)
		}
	}
	if p := tr.spans[0].Parent; p != 1 {
		t.Errorf("the read's parent is span %d, want the first scan", p)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// A phase's probes give one slowdown and are then forgotten; a traced run
// has no probe and is not scaled.
func TestProbePhases(t *testing.T) {
	p, err := newProbe(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	for i := 0; i < 3; i++ {
		p.run()
	}
	if slowdown, spent := p.take(); slowdown <= 0 || spent <= 0 {
		t.Errorf("after three probes: slowdown %v, spent %v", slowdown, spent)
	}
	if slowdown, spent := p.take(); slowdown != 1 || spent != 0 {
		t.Errorf("a phase without probes: slowdown %v, spent %v, want 1 and 0", slowdown, spent)
	}
	var none *probe
	none.run()
	if slowdown, spent := none.take(); slowdown != 1 || spent != 0 {
		t.Errorf("no probe: slowdown %v, spent %v, want 1 and 0", slowdown, spent)
	}
}
