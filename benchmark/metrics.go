package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vxml/internal/bench"
)

// metricDef declares one metric. The tables below are the single source
// of the metric names, units and bounds: BENCHMARK.json is their rendering
// (-manifest prints it; a test pins the committed file to it) and
// -selfcheck gates on the same bounds.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the store sees; the same seven on every
// workload. A bound is three times the spread ten runs of one binary show
// on the shared sandbox, or more (README.md has the runs): the five
// time-based metrics, read at the reference host's speed (probe.go), spread
// by 3-8 %, most often, and get the widest bound the contract allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"disk_bytes_per_xml_byte", "ratio", "lower", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer is what single layers did during the traced phase. "_per_op"
// is a total divided by the traced timed ops.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
		}
		return out
	}
	higher := func(unit string, names ...string) []metricDef {
		out := lower(unit, names...)
		for i := range out {
			out[i].Better = "higher"
		}
		return out
	}
	var m []metricDef
	add := func(d []metricDef) { m = append(m, d...) }

	add(lower("ms", "xmlmodel.parse_ms", "xmlmodel.serialize_ms_per_op"))

	add(lower("ms", "vectorize.create_ms"))
	add(higher("MB/s", "vectorize.create_mb_s"))
	add(lower("ms", "vectorize.open_ms_per_op", "vectorize.append_ms_per_op"))
	add(lower("count", "vectorize.vectors"))
	add(lower("bytes", "vectorize.disk_bytes"))

	add(lower("ms", "skeleton.decode_ms_per_op", "skeleton.classes_ms_per_op"))
	add(lower("count", "skeleton.nodes", "skeleton.edges", "skeleton.classes"))

	add(lower("count", "vector.opens_per_op"))
	add(lower("ms", "vector.open_ms_per_op"))
	add(lower("count", "vector.scan_calls_per_op"))
	add(lower("ms", "vector.scan_ms_per_op"))
	add(lower("count", "vector.values_per_op"))
	add(lower("bytes", "vector.value_bytes_per_op"))
	add(higher("MB/s", "vector.scan_mb_s"))

	add(higher("count", "storage.pool_hits_per_op"))
	add(lower("count", "storage.pool_misses_per_op"))
	add(higher("ratio", "storage.pool_hit_ratio"))
	add(lower("count", "storage.pool_evictions_per_op", "storage.pages_read_per_op",
		"storage.pages_written", "storage.fs_opens", "storage.fs_opens_per_op"))
	add(lower("ms", "storage.fs_open_ms"))
	add(lower("count", "storage.fs_reads_per_op"))
	add(lower("bytes", "storage.fs_read_bytes_per_op"))
	add(lower("ms", "storage.fs_read_ms_per_op"))
	add(lower("count", "storage.fs_writes"))
	add(lower("ratio", "storage.fs_write_bytes_per_xml_byte"))
	add(lower("count", "storage.fs_syncs", "storage.fs_syncs_per_op"))
	add(lower("ms", "storage.fs_sync_ms_per_op"))

	add(lower("us", "xq.parse_us_per_op", "qgraph.build_us_per_op"))
	add(lower("count", "qgraph.plan_ops_per_op"))

	add(lower("ms", "core.eval_ms_per_op", "core.eval_self_ms_per_op"))
	for _, q := range bench.AllQueries {
		add(lower("ms", "core.eval_ms."+string(q)))
	}
	add(lower("count", "core.values_scanned_per_op", "core.rows_produced_per_op",
		"core.tuples_per_op", "core.runs_expanded_per_op"))
	add(higher("count", "core.memo_hits_per_op"))
	add(lower("count", "core.vectors_opened_per_op"))
	add(lower("ratio", "core.values_scanned_per_tuple"))

	add(lower("us", "core.service_hit_us"))
	add(lower("ms", "core.service_miss_ms"))
	add(higher("ratio", "core.result_cache_hit_ratio", "core.plan_cache_hit_ratio"))
	add(higher("count", "core.singleflight_followers"))
	add(lower("count", "core.queries_shed"))

	add(lower("us", "serve.handler_hit_us"))
	add(lower("ms", "serve.handler_miss_ms"))
	add(lower("us", "serve.self_hit_us", "serve.self_miss_us"))
	add(lower("bytes", "serve.response_bytes_per_op"))
	add(lower("count", "serve.non200"))

	add(lower("bytes", "runtime.alloc_bytes_per_op"))
	add(lower("count", "runtime.allocs_per_op", "runtime.gc_cycles"))
	add(lower("ms", "runtime.gc_pause_ms"))

	add(lower("ratio", "trace.overhead_ratio"))
	add(lower("count", "trace.spans"))
	return m
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"cold_regular", "few long vectors (XMark, SkyServer, MedLine), every query cold: pool faults, vector scan and decode, reduce/join, result XML; caches and serve do nothing"},
	{"cold_irregular", "thousands of tiny vectors (TreeBank), every query cold: Open, class discovery, // target resolution, vector opens and the join; scans are negligible"},
	{"serve_zipf", "Zipf(1.1) over 1024 texts through the HTTP handler: p50 is the result-cache hit path, the tail is the miss path; storage does almost nothing"},
	{"ingest_append", "Repository.Append of 10 KB fragments: the layers the cold workloads read are written here (append writers, catalog, skeleton, manifest, fsync)"},
}

// runSeconds is BENCHMARK.json's run_seconds: the length of the measured
// phase the op counts in sizes.go are calibrated for.
const runSeconds = 16

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// tailQuantile picks the highest of p99, p90 and p80 that the host lets n
// samples resolve: p80 and p90 need ten samples beyond them (n >= 50 and
// n >= 100), p99 a thousand (n >= 100,000). On the shared sandbox a pause
// of the hypervisor's lengthens a percent or two of a run's ops by several
// times, in some hours and not in others; a p99 with sixty samples beyond it
// then reads the pauses (ingest_append's read 4.7 ms in a quiet set of ten
// runs and 6.7 ms beside a neighbour busy for seconds at a time, its p90 3.52
// and 3.59 ms; README.md has the runs).
func tailQuantile(n int) float64 {
	switch {
	case n >= 100000:
		return 0.99
	case n >= 100:
		return 0.90
	}
	return 0.80
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quartiles matches Python's statistics.quantiles(v, n=4), the rule the
// acceptance check applies to run-to-run spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// dirBytes sums the apparent sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// fsTypeName names the filesystem holding path, for the environment block.
func fsTypeName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
