package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vxml/internal/obs"
)

// config is one run's arguments.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Sizes    sizes
	WorkDir  string // an existing directory the run may fill
	KeepWork bool   // WorkDir outlives the run (-work): write the span file
	Oracle   *oracle
}

// workload is the part of a run that differs between workloads. The
// runner owns the schedule, the clients, timing and verification.
type workload interface {
	// setUp builds the workload's datasets under dir: generate the XML
	// and vectorize it.
	setUp(dir string, tr *tracer) (setupInfo, error)
	// open prepares what lives across ops (a server, an open repository)
	// over the repositories in dir. tr is nil in an untraced phase.
	open(dir string, tr *tracer) error
	// do runs op i of the schedule and appends its outputs to c.outs.
	do(c *client, i int, tr *tracer) error
	close() error
	// verify runs the post-timing checks: the reference interpreter on
	// every distinct input seen, and the workload's own invariants.
	verify(dir string, v *verifier, orc *oracle) error
	// clients is how many closed-loop clients drive an untraced phase.
	clients() int
	// xmlAppended is the XML bytes ingested by ops so far.
	xmlAppended() int64
	// datasets lists what setUp builds.
	datasets() []dataset
	// skeletonUses is, per repository under dir, how many skeleton
	// decodes and class-registry builds one op causes there.
	skeletonUses(dir string) map[string][2]float64
}

// client is one closed-loop caller's scratch, reused across its ops.
type client struct {
	outs []output
	resp response // serve_zipf's in-memory http.ResponseWriter
}

// output is one result of an op, to be checked after the op's clock
// stopped: the result XML of input Input (for serve_zipf, still
// JSON-escaped as it came off the wire).
type output struct {
	Input int32
	Data  []byte
}

// verifier holds, per distinct input, the first output seen for it, and
// compares every later output against that digest.
type verifier struct {
	first []atomic.Pointer[firstSeen]
}

type firstSeen struct {
	Digest [sha256.Size]byte
	Data   string
}

func newVerifier(inputs int) *verifier {
	return &verifier{first: make([]atomic.Pointer[firstSeen], inputs)}
}

// check reports whether data is what input produced the first time.
func (v *verifier) check(input int32, data []byte) bool {
	d := sha256.Sum256(data)
	p := &v.first[input]
	e := p.Load()
	if e == nil {
		if p.CompareAndSwap(nil, &firstSeen{Digest: d, Data: string(data)}) {
			return true
		}
		e = p.Load()
	}
	return e.Digest == d
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	Attempted, Failed int
	FirstErr          error
	Latencies         []float64        // ms, every successful op's, ascending
	Wall              time.Duration    // first op's start to last op's end, less the probes
	CPU               time.Duration    // user+system meanwhile, less the probes
	Slowdown          float64          // the host's, by the phase's probes (probe.go)
	Obs               map[string]int64 // obs registry deltas
	Mem               runtime.MemStats // deltas of the cumulative fields
}

// p50 is the median latency of a successful op, ms.
func (p phaseResult) p50() float64 { return quantile(p.Latencies, 0.5) }

// tail is the highest percentile of the latencies that has ten samples
// beyond it, and which percentile that is.
func (p phaseResult) tail() (ms, q float64) {
	q = tailQuantile(len(p.Latencies))
	return quantile(p.Latencies, q), q
}

// throughput is successful ops per second of wall time.
func (p phaseResult) throughput() float64 {
	return ratio(float64(len(p.Latencies)), p.Wall.Seconds())
}

// cpuPerOp is CPU milliseconds per successful op.
func (p phaseResult) cpuPerOp() float64 {
	return ratio(float64(p.CPU)/1e6, float64(len(p.Latencies)))
}

// runner drives ops of one schedule at one workload.
type runner struct {
	w  workload
	s  *schedule
	v  *verifier
	tr *tracer
	// probe samples the host's speed during untraced timed phases and
	// between set-up passes; nil in a traced run.
	probe *probe

	mu       sync.Mutex
	failed   int
	firstErr error
}

func (r *runner) fail(err error) {
	r.mu.Lock()
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

// drive runs ops[lo:hi) from clients closed-loop clients, which take ops
// in schedule order; done gets each op's clock readings. Between ops,
// every probeEvery, a client runs pr (nil: none).
func (r *runner) drive(lo, hi, clients int, pr *probe, done func(i int, start, end time.Time, err error)) {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{}
			var probed time.Time
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				if pr != nil && time.Since(probed) >= probeEvery {
					pr.run()
					probed = time.Now()
				}
				c.outs = c.outs[:0]
				t0 := r.tr.startOp(i)
				start := time.Now()
				err := r.w.do(c, i, r.tr)
				end := time.Now()
				r.tr.end(spOp, t0)
				// Outputs are checked once the op's clock has stopped.
				for _, o := range c.outs {
					if err == nil && !r.v.check(o.Input, o.Data) {
						err = fmt.Errorf("op %d: output of %s differs from its first output", i, r.s.Labels[o.Input])
					}
				}
				done(i, start, end, err)
			}
		}()
	}
	wg.Wait()
}

// warm runs ops[lo:hi) untimed.
func (r *runner) warm(lo, hi, clients int) {
	r.drive(lo, hi, clients, nil, func(_ int, _, _ time.Time, err error) {
		if err != nil {
			r.fail(fmt.Errorf("warm-up: %w", err))
		}
	})
}

// timed runs ops[lo:hi) on the clock.
func (r *runner) timed(lo, hi, clients int) phaseResult {
	// Per op only its latency is kept (ms; negative: failed): a quarter of
	// a million requests must not show in peak_rss_mb.
	lat := make([]float32, hi-lo)
	for i := range lat {
		lat[i] = -1
	}
	failedBefore := r.failed

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	obs0 := obs.Snapshot()
	cpu0, _ := cpuTime() // getrusage(RUSAGE_SELF) does not fail
	begin := time.Now()
	r.drive(lo, hi, clients, r.probe, func(i int, start, end time.Time, err error) {
		if err != nil {
			r.fail(err)
			return
		}
		lat[i-lo] = float32(float64(end.Sub(start)) / 1e6)
	})
	wall := time.Since(begin)
	cpu1, _ := cpuTime()
	// A probe is one thread's work: CPU time as long as its wall time, and
	// that much of one client's share of the phase.
	slowdown, probing := r.probe.take()
	res := phaseResult{Attempted: hi - lo, Failed: r.failed - failedBefore, FirstErr: r.firstErr,
		Wall: wall - probing/time.Duration(clients), CPU: cpu1 - cpu0 - probing, Slowdown: slowdown}
	runtime.ReadMemStats(&m1)
	res.Obs = obsSince(obs0)
	res.Mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	res.Mem.Mallocs = m1.Mallocs - m0.Mallocs
	res.Mem.NumGC = m1.NumGC - m0.NumGC
	res.Mem.PauseTotalNs = m1.PauseTotalNs - m0.PauseTotalNs

	for _, l := range lat {
		if l >= 0 {
			res.Latencies = append(res.Latencies, float64(l))
		}
	}
	sort.Float64s(res.Latencies)
	return res
}

// result is one run's outcome: what the last line of output reports.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Notes     []string // human-readable detail: sample counts, first error
}

// run executes one whole run: the set-up passes, each with its slice of
// the warm-up; the timed phase (or, traced, a traced phase and a short
// untraced one); and verification.
func run(cfg config) (*result, error) {
	s, err := newSchedule(cfg.Workload, cfg.Sizes, cfg.Seconds, cfg.Seed)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg.Workload, cfg.Sizes, s)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	clients := w.clients()
	if cfg.Trace {
		// One client, so that spans nest by time and counts repeat.
		tr, clients = newTracer(), 1
	}
	r := &runner{w: w, s: s, v: newVerifier(len(s.Inputs))}
	if !cfg.Trace {
		if r.probe, err = newProbe(cfg.WorkDir); err != nil {
			return nil, err
		}
		defer r.probe.close()
	}

	// Set-up, several times over: each pass is everything between process
	// start and the first timed op — generate the XML, vectorize it, open
	// what the ops use, and run a slice of the warm-up ops. The last pass's
	// repositories are the ones measured, and only that pass is traced.
	passes := cfg.Sizes.SetupPasses[cfg.Workload]
	warmPerPass := s.Warm / passes
	var passSeconds []float64
	var info setupInfo
	var dir string
	var setupObs map[string]int64
	for p := 0; p < passes; p++ {
		last := p == passes-1
		r.probe.run()
		dir = filepath.Join(cfg.WorkDir, fmt.Sprintf("pass%d", p))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if last && tr != nil {
			r.tr = tr
			tr.enter(&tr.setup, false, 0)
			setupObs = obs.Snapshot()
		}
		start := time.Now()
		info, err = w.setUp(dir, r.tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if tr != nil && last {
			setupObs = obsSince(setupObs)
			tr.enter(&tr.warm, false, 0)
		}
		if err := w.open(dir, r.tr); err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		r.warm(p*warmPerPass, (p+1)*warmPerPass, clients)
		passSeconds = append(passSeconds, time.Since(start).Seconds())
		if !last {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}

	r.probe.run()
	setupSlowdown, _ := r.probe.take()

	res := &result{Metrics: map[string]float64{}}
	n := len(s.Ops)
	var timed phaseResult
	var traced tracedRun
	if !cfg.Trace {
		timed = r.timed(s.Warm, n, clients)
	} else {
		// A quarter of the timed ops run traced, then another quarter
		// untraced as the baseline for trace.overhead_ratio; the rest of the
		// schedule is not run (one client at a time is slow enough). The
		// baseline comes second so that it runs beside the same live span
		// buffer: on an allocation-heavy op a larger heap means fewer
		// collections, and run first, without it, the untraced ops would
		// come out slower than the traced ones.
		cut := s.Warm + (n-s.Warm)/4
		n = cut + (n-s.Warm)/4
		var spans int64
		for _, c := range tr.warm.calls {
			spans += c
		}
		perOp := int(spans)/warmPerPass + 1
		tr.enter(&tr.timed, true, perOp*(cut-s.Warm)*5/4+1024)
		xmlAtMark := w.xmlAppended()
		timed = r.timed(s.Warm, cut, 1)
		traced = tracedRun{
			tr: tr, timed: timed, setupObs: setupObs, info: info,
			xmlTimed: w.xmlAppended() - xmlAtMark,
			repos:    repoDirs(dir, w.datasets()), uses: w.skeletonUses(dir),
		}
		if sw, ok := w.(*serveWorkload); ok {
			tr.enter(&tr.timed, false, 0)
			if err := sw.traceExtras(&traced, s.Warm-warmPerPass, warmPerPass, cut); err != nil {
				return nil, err
			}
		}
		tr.enter(nil, false, 0)
		r.tr = nil
		if err := w.close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		if err := w.open(dir, nil); err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		baseWarm := (n-cut)/10 + 1
		r.warm(cut, cut+baseWarm, 1)
		base := r.timed(cut+baseWarm, n, 1)
		res.Attempted += base.Attempted
		res.Metrics["trace.overhead_ratio"] = ratio(timed.p50(), base.p50())
	}
	res.Attempted += timed.Attempted
	res.Failed = r.failed
	if r.firstErr != nil {
		res.Notes = append(res.Notes, "first error: "+r.firstErr.Error())
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Verification and teardown, outside every clock.
	verr := w.verify(dir, r.v, cfg.Oracle)
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if verr != nil {
		res.Notes = append(res.Notes, "verification: "+verr.Error())
	}
	res.Correct = verr == nil && res.Failed == 0

	if cfg.Trace {
		if err := layerMetrics(res.Metrics, traced); err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%d spans of %d traced ops", len(tr.spans), timed.Attempted))
		// A work directory of the run's own is removed when it exits, and
		// a trace of a million spans is 100 MB of JSON: written only to a
		// directory that is kept.
		if cfg.KeepWork {
			spanFile := filepath.Join(cfg.WorkDir, cfg.Workload+".spans.json")
			if err := tr.writeSpans(spanFile); err != nil {
				return nil, err
			}
			res.Notes = append(res.Notes, "spans written to "+spanFile)
		}
		return res, nil
	}

	var disk int64
	for _, d := range repoDirs(dir, w.datasets()) {
		b, err := dirBytes(d)
		if err != nil {
			return nil, err
		}
		disk += b
	}
	sort.Float64s(passSeconds)
	setup := quantile(passSeconds, 0.5)
	tail, q := timed.tail()
	res.Metrics["setup_s"] = setup / setupSlowdown
	res.Metrics["op_p50_ms"] = timed.p50() / timed.Slowdown
	res.Metrics["op_tail_ms"] = tail / timed.Slowdown
	res.Metrics["throughput_ops_s"] = timed.throughput() * timed.Slowdown
	res.Metrics["cpu_ms_per_op"] = timed.cpuPerOp() / timed.Slowdown
	res.Metrics["disk_bytes_per_xml_byte"] = ratio(float64(disk), float64(info.XMLBytes+w.xmlAppended()))
	res.Metrics["peak_rss_mb"] = rss
	res.Notes = append(res.Notes,
		fmt.Sprintf("op_tail_ms is p%.0f of %d timed ops", q*100, len(timed.Latencies)),
		fmt.Sprintf("measured phase %.2fs, %d client(s); set-up passes, ascending: %.3v s",
			timed.Wall.Seconds(), clients, passSeconds),
		fmt.Sprintf("as measured, on a host %.3f (set-up: %.3f) times slower than the reference: setup_s %.6g, op_p50_ms %.6g, op_tail_ms %.6g, throughput_ops_s %.6g, cpu_ms_per_op %.6g",
			timed.Slowdown, setupSlowdown, setup, timed.p50(), tail, timed.throughput(), timed.cpuPerOp()),
		fmt.Sprintf("latency as measured, ms: p50 %.6g p80 %.6g p90 %.6g p95 %.6g p99 %.6g max %.6g",
			timed.p50(), quantile(timed.Latencies, 0.8), quantile(timed.Latencies, 0.9),
			quantile(timed.Latencies, 0.95), quantile(timed.Latencies, 0.99), quantile(timed.Latencies, 1)))
	return res, nil
}

// obsSince returns how far the obs registry's counters moved since before.
func obsSince(before map[string]int64) map[string]int64 {
	now := obs.Snapshot()
	for k, v := range before {
		now[k] -= v
	}
	return now
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
