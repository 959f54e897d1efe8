// Command benchmark is the repository's one benchmark harness: four
// fixed-count workloads over the vectorized XML store, seven end-to-end
// metrics, and per-layer numbers from a second, traced run. README.md in
// this directory says why each workload exists and how to read the output;
// BENCHMARK.json at the repository root is the contract it is run under.
//
//	bash benchmark/run.sh --workload cold_regular --seed 1 --seconds 16 --trace 0
//
// One process is one run. The last line of standard output is one JSON
// object: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: cold_regular, cold_irregular, serve_zipf or ingest_append")
		seed         = flag.Int64("seed", 1, "schedule seed")
		seconds      = flag.Float64("seconds", runSeconds, "length of the measured phase the op count is sized for")
		trace        = flag.Int("trace", 0, "1 runs the traced schedule and reports the per-layer metrics instead")
		work         = flag.String("work", "", "work directory, kept afterwards (default: a fresh one on /dev/shm, removed at exit)")
		scratch      = flag.String("scratch", os.TempDir(), "where the work directory goes when /dev/shm is not a writable tmpfs")
		selfN        = flag.Int("selfcheck", 0, "run every workload N times as set A and N times as set B and compare them")
		printMan     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		golden       = flag.String("write-golden", "", "compute the reference answers of the cold workloads and write them to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *printMan {
		data, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	if *selfN > 0 {
		os.Exit(selfcheck(*selfN, *seed, *seconds, *scratch))
	}

	workDir, keep, err := makeWorkDir(*work, *scratch)
	if err != nil {
		fatal(err)
	}
	cleanup := func() {
		if !keep {
			os.RemoveAll(workDir)
		}
	}
	// A run that is killed must not leave its repositories on /dev/shm.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	//vx:goroutine-bounded it lives as long as the process: it either exits it or is ended by main returning
	go func() {
		<-sig
		cleanup()
		os.Exit(1)
	}()

	if *golden != "" {
		err := writeGolden(*golden, workDir)
		cleanup()
		if err != nil {
			fatal(err)
		}
		return
	}

	orc, err := newOracle()
	if err != nil {
		cleanup()
		fatal(err)
	}
	cfg := config{
		Workload: *workloadName, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		Sizes: standard, WorkDir: workDir, KeepWork: keep, Oracle: orc,
	}
	printEnv(cfg)
	res, err := run(cfg)
	cleanup()
	if err != nil {
		fatal(err)
	}
	report(res, cfg.Trace)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// makeWorkDir returns the directory the run's repositories live in. Unless
// one is named, it is a fresh directory on /dev/shm: on the sandbox this
// benchmark is gated on, the same vectorize.Create takes 1.7-3.4 s on the
// virtio disk and 0.4-0.5 s on tmpfs, all of the difference fsync and
// open, so on disk the benchmark would measure the host's disk and not
// this program. Device cost is reported as exact counts instead (the
// storage.fs_* per-layer metrics).
func makeWorkDir(named, scratch string) (dir string, keep bool, err error) {
	if named != "" {
		return named, true, os.MkdirAll(named, 0o755)
	}
	// The largest run keeps some 150 MB there; a container's default
	// 64 MB /dev/shm is passed over.
	var st syscall.Statfs_t
	if fsTypeName("/dev/shm") == "tmpfs" && syscall.Statfs("/dev/shm", &st) == nil &&
		st.Bavail*uint64(st.Bsize) >= 1<<30 {
		if dir, err := os.MkdirTemp("/dev/shm", "vxbenchmark-"); err == nil {
			return dir, false, nil
		}
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return "", false, err
	}
	dir, err = os.MkdirTemp(scratch, "vxbenchmark-")
	return dir, false, err
}

// printEnv prints the environment block.
func printEnv(cfg config) {
	fmt.Printf("workload      %s\n", cfg.Workload)
	fmt.Printf("seed          %d\n", cfg.Seed)
	fmt.Printf("seconds       %g\n", cfg.Seconds)
	fmt.Printf("traced        %v\n", cfg.Trace)
	fmt.Printf("sizes         %s\n", cfg.Sizes.Name)
	fmt.Printf("nproc         %d\n", runtime.NumCPU())
	fmt.Printf("GOMAXPROCS    %d\n", runtime.GOMAXPROCS(0))
	fmt.Printf("go            %s %s/%s\n", runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("work dir      %s (%s)\n", cfg.WorkDir, fsTypeName(cfg.WorkDir))
}

// report prints every metric by name with its unit, then the result line.
func report(res *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	fmt.Println()
	for _, d := range defs {
		v := res.Metrics[d.Name]
		metrics[d.Name] = value{v, d.Unit}
		fmt.Printf("%-36s %16.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Println()
	fmt.Printf("ops attempted %d, failed %d, outputs correct: %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range res.Notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// newWorkload builds the named workload over its schedule.
func newWorkload(name string, sz sizes, s *schedule) (workload, error) {
	switch name {
	case "cold_regular":
		return newColdWorkload(s, sz.ColdRegular, sz.ColdPool)
	case "cold_irregular":
		return newColdWorkload(s, sz.ColdIrregular, sz.ColdPool)
	case "serve_zipf":
		return newServeWorkload(s, sz)
	case "ingest_append":
		return newIngestWorkload(s, sz)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// writeGolden computes the reference interpreter's answer to every query
// of the cold workloads at standard size, checks the engine against it,
// and writes the digests to path. It takes minutes.
func writeGolden(path, workDir string) error {
	orc, err := newOracle()
	if err != nil {
		return err
	}
	orc.golden = nil // interpret everything afresh
	names := make([]string, 0, len(coldQueries))
	for name := range coldQueries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s, err := newSchedule(name, standard, 1, 1)
		if err != nil {
			return err
		}
		w, err := newWorkload(name, standard, s)
		if err != nil {
			return err
		}
		dir := filepath.Join(workDir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if _, err := w.setUp(dir, nil); err != nil {
			return err
		}
		if err := w.open(dir, nil); err != nil {
			return err
		}
		v := newVerifier(len(s.Inputs))
		c := &client{}
		if err := w.do(c, 0, nil); err != nil {
			return err
		}
		for _, o := range c.outs {
			v.check(o.Input, o.Data)
		}
		fmt.Fprintf(os.Stderr, "%s: interpreting %d queries\n", name, len(s.Inputs))
		if err := w.verify(dir, v, orc); err != nil {
			return err
		}
	}
	return orc.writeGolden(path)
}
