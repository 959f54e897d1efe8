package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// selfcheckSchema versions the report -selfcheck writes (BASELINE.json).
const selfcheckSchema = 1

// setStats summarises one metric over one set of runs.
type setStats struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3-Q1)/Median: the run-to-run noise the bound must exceed.
	Spread float64 `json:"spread"`
}

func summarise(v []float64) setStats {
	q1, q2, q3 := quartiles(v)
	return setStats{Values: v, Q1: q1, Median: q2, Q3: q3, Spread: ratio(q3-q1, q2)}
}

// metricCheck compares one end-to-end metric between the two sets.
type metricCheck struct {
	Unit  string   `json:"unit"`
	Bound float64  `json:"bound"`
	A     setStats `json:"a"`
	B     setStats `json:"b"`
	// Disagreement is |median A - median B| / median A.
	Disagreement float64 `json:"disagreement"`
	OK           bool    `json:"ok"`
	// Unresolved: a set's own spread exceeds the bound, so this host could
	// not tell a regression of the bound's size from its noise.
	Unresolved bool `json:"unresolved"`
}

type workloadCheck struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricCheck `json:"metrics"`
}

type selfcheckReport struct {
	Schema      int                      `json:"schema"`
	Taken       string                   `json:"taken"`
	Environment map[string]string        `json:"environment"`
	RunsPerSet  int                      `json:"runs_per_set"`
	Seconds     float64                  `json:"seconds"`
	FirstSeed   int64                    `json:"first_seed"`
	Workloads   map[string]workloadCheck `json:"workloads"`
	OK          bool                     `json:"ok"`
}

// selfcheck runs every workload n times as set A and n times as set B,
// alternating, each run its own process (peak RSS is per process) and run
// i of either set on seed first+i. Two sets of the same code must agree
// within each metric's own bound, or the bounds mean nothing. The report
// is the last line of standard output, as a run's result is; the return
// value is the process's exit code.
func selfcheck(n int, first int64, seconds float64, scratch string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	rep := selfcheckReport{
		Schema:     selfcheckSchema,
		Taken:      time.Now().UTC().Format(time.RFC3339),
		RunsPerSet: n, Seconds: seconds, FirstSeed: first,
		Environment: map[string]string{
			"nproc":      strconv.Itoa(runtime.NumCPU()),
			"GOMAXPROCS": strconv.Itoa(runtime.GOMAXPROCS(0)),
			"go":         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
			"work_fs":    fsTypeName("/dev/shm"),
			"sizes":      standard.Name,
		},
		Workloads: map[string]workloadCheck{},
		OK:        true,
	}
	for _, wl := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		wc := workloadCheck{Metrics: map[string]metricCheck{}}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				args := []string{"-workload", wl.Name, "-seed", strconv.FormatInt(first+int64(i), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-scratch", scratch}
				line, err := runChild(exe, args)
				if err != nil {
					fatal(fmt.Errorf("%s run %d%c: %w", wl.Name, i, 'A'+set, err))
				}
				wc.Attempted += line.Attempted
				wc.Failed += line.Failed
				if !line.Correct {
					rep.OK = false
				}
				for name, v := range line.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
				fmt.Fprintf(os.Stderr, "%s %d%c done\n", wl.Name, i, 'A'+set)
			}
		}
		fmt.Printf("\n%s (%d ops attempted, %d failed)\n", wl.Name, wc.Attempted, wc.Failed)
		fmt.Printf("  %-26s %12s %8s %12s %8s %9s %6s\n", "metric", "median A", "spread", "median B", "spread", "|A-B|/A", "bound")
		for _, d := range endToEnd {
			a, b := summarise(sets[0][d.Name]), summarise(sets[1][d.Name])
			mc := metricCheck{Unit: d.Unit, Bound: d.Bound, A: a, B: b,
				Disagreement: ratio(math.Abs(a.Median-b.Median), a.Median)}
			mc.OK = mc.Disagreement <= d.Bound
			mc.Unresolved = a.Spread > d.Bound || b.Spread > d.Bound
			if !mc.OK {
				rep.OK = false
			}
			wc.Metrics[d.Name] = mc
			mark := ""
			if !mc.OK {
				mark = "  DISAGREE"
			} else if mc.Unresolved {
				mark = "  unresolved"
			}
			fmt.Printf("  %-26s %12.5g %7.2f%% %12.5g %7.2f%% %8.2f%% %5.0f%%%s\n",
				d.Name, a.Median, a.Spread*100, b.Median, b.Spread*100, mc.Disagreement*100, d.Bound*100, mark)
		}
		rep.Workloads[wl.Name] = wc
	}
	data, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	if rep.OK {
		fmt.Println("\nselfcheck: ok")
	} else {
		fmt.Println("\nselfcheck: FAILED (a run was incorrect or two sets disagree beyond a bound)")
	}
	fmt.Println(string(data))
	if !rep.OK {
		return 1
	}
	return 0
}

// resultLine is the last line of a run's output.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runChild(exe string, args []string) (*resultLine, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("last line of output is not a result: %w", err)
	}
	return &line, nil
}
