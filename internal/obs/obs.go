// Package obs is the system's lightweight observability registry: named
// monotonic counters and latency histograms that the storage manager, the
// vector readers and the query engine bump on their hot paths, and that
// the serving surface (vxstore serve /metrics) and the benchmark harness
// read as a point-in-time snapshot.
//
// Design constraints, in order:
//
//  1. Hot-path cost. A counter update is one atomic add; callers resolve
//     *Counter pointers once (package init) so no map lookup or lock sits
//     on a page-fault or scan path. Events are counted at page/operation
//     granularity, never per value — per-value accounting lives in the
//     engine's plain per-evaluation TaskCounters, lock-free by ownership
//     and folded into the query's TaskMeter a few times per query.
//  2. No dependencies. Everything imports obs; obs imports only stdlib.
//  3. Monotonicity. Counters only go up, so scrapers can diff snapshots;
//     Reset exists for benchmark isolation only.
//
// The default registry is published through expvar under the key "vx", so
// any process that serves http.DefaultServeMux (or mounts expvar.Handler)
// exposes the counters on /debug/vars for free.
package obs

import (
	"expvar"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be >= 0 to keep monotonicity).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic level — a value that goes up and down, unlike the
// monotonic Counter. Admission control publishes its in-flight and queued
// levels through gauges so scrapers see the instantaneous state rather
// than a rate.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets are the histogram's upper bounds in microseconds, roughly
// quadrupling: 100µs .. ~26s, plus a catch-all overflow bucket.
const numHistBuckets = 10

var histBuckets = [numHistBuckets]int64{100, 400, 1_600, 6_400, 25_600, 102_400, 409_600, 1_638_400, 6_553_600, 26_214_400}

// Histogram accumulates durations into fixed log-scale buckets. All
// methods are safe for concurrent use; Observe is a few atomic adds.
type Histogram struct {
	buckets [numHistBuckets + 1]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
	maxUS   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	i := sort.Search(len(histBuckets), func(i int) bool { return us <= histBuckets[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
	for {
		cur := h.maxUS.Load()
		if us <= cur || h.maxUS.CompareAndSwap(cur, us) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// SumMicros returns the summed observed duration in microseconds.
func (h *Histogram) SumMicros() int64 { return h.sumUS.Load() }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) in
// microseconds, from the bucket boundaries; 0 with no observations.
// The rank is the ceiling of q*total (nearest-rank definition): for
// 5 observations p50 is the 3rd smallest, not the 2nd — truncating
// biases every odd-count quantile one observation low.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if max := h.maxUS.Load(); i >= len(histBuckets) || max < histBuckets[i] {
				return max // observed max is a tighter bound than the bucket edge
			}
			return histBuckets[i]
		}
	}
	return h.maxUS.Load()
}

// Registry names counters and histograms. The zero Registry is not usable;
// call NewRegistry (or use Default).
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter   // guarded by mu
	hists  map[string]*Histogram // guarded by mu
	gauges map[string]*Gauge     // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		hists:  make(map[string]*Histogram),
		gauges: make(map[string]*Gauge),
	}
}

// Counter returns the named counter, creating it on first use. Resolve
// once and keep the pointer; the lookup takes the registry lock.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// IsGauge reports whether name is registered as a gauge — exporters use
// this to emit the right metric type.
func (r *Registry) IsGauge(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.gauges[name]
	return ok
}

// Snapshot returns a point-in-time copy of every counter, plus derived
// histogram fields (<name>.count, <name>.sum_us, <name>.p50_us,
// <name>.p90_us, <name>.p99_us, <name>.max_us). Keys are stable across
// calls, so two snapshots diff cleanly.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.ctrs)+len(r.gauges)+6*len(r.hists))
	for name, c := range r.ctrs {
		out[name] = c.Load()
	}
	for name, g := range r.gauges {
		out[name] = g.Load()
	}
	for name, h := range r.hists {
		out[name+".count"] = h.Count()
		out[name+".sum_us"] = h.SumMicros()
		out[name+".p50_us"] = h.Quantile(0.50)
		out[name+".p90_us"] = h.Quantile(0.90)
		out[name+".p99_us"] = h.Quantile(0.99)
		out[name+".max_us"] = h.maxUS.Load()
	}
	return out
}

// Names returns the sorted key set a Snapshot would produce (counters and
// histogram base names).
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.ctrs)+len(r.gauges)+len(r.hists))
	for n := range r.ctrs {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Reset zeroes every counter and histogram — benchmark isolation only;
// production readers rely on monotonicity.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.ctrs {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.sumUS.Store(0)
		h.maxUS.Store(0)
	}
}

// Default is the process-wide registry every subsystem reports into.
var Default = NewRegistry()

// GetCounter returns a counter from the default registry.
func GetCounter(name string) *Counter { return Default.Counter(name) }

// GetHistogram returns a histogram from the default registry.
func GetHistogram(name string) *Histogram { return Default.Histogram(name) }

// GetGauge returns a gauge from the default registry.
func GetGauge(name string) *Gauge { return Default.Gauge(name) }

// IsGauge reports whether name names a gauge in the default registry.
func IsGauge(name string) bool { return Default.IsGauge(name) }

// Snapshot snapshots the default registry plus the process-level keys
// (start time and uptime), which live outside the registry because they
// are derived from the wall clock rather than accumulated.
func Snapshot() map[string]int64 {
	snap := Default.Snapshot()
	snap["process.start_time_unix_seconds"] = processStart.Unix()
	snap["process.uptime_seconds"] = int64(time.Since(processStart).Seconds())
	return snap
}

// processStart anchors the process uptime and start-time metrics.
var processStart = time.Now()

var (
	buildMu      sync.Mutex
	buildVersion = "dev" // guarded by buildMu
	buildFormat  int64   // guarded by buildMu; repository format version
)

// SetBuildInfo records the binary's version string and the repository
// format version it writes, exposed as the vx_build_info gauge on
// /metrics and under "vx_build_info" in expvar.
func SetBuildInfo(version string, format int64) {
	buildMu.Lock()
	if version != "" {
		buildVersion = version
	}
	buildFormat = format
	buildMu.Unlock()
}

// BuildInfo returns the recorded version string and format version.
func BuildInfo() (version string, format int64) {
	buildMu.Lock()
	defer buildMu.Unlock()
	return buildVersion, buildFormat
}

func init() {
	// /debug/vars integration: the whole registry (plus process keys) as
	// one JSON object, and build identity as a second.
	expvar.Publish("vx", expvar.Func(func() any { return Snapshot() }))
	expvar.Publish("vx_build_info", expvar.Func(func() any {
		v, f := BuildInfo()
		return map[string]any{"version": v, "format": f}
	}))
}
