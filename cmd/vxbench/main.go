// Command vxbench regenerates the paper's evaluation: Table 1 (dataset
// statistics), Table 2 (capability matrix), Table 3 (13-query timings on
// five systems), Figure 8 (XMark scalability) and the ablation suite.
//
// Usage:
//
//	vxbench [-work DIR] [-quick] table1|table2|table3|fig8|ablations|verify|all
//
// Serving throughput, latency and per-layer cost are measured by the
// benchmark harness under benchmark/ (bash benchmark/run.sh), not here.
//
// Datasets are generated and vectorized on first use and cached under the
// work directory, so the first run is slower than subsequent ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vxml/internal/bench"
)

func main() {
	work := flag.String("work", "bench-work", "work directory for datasets")
	quick := flag.Bool("quick", false, "use tiny datasets (smoke test)")
	xkScale := flag.Float64("xk", 0, "XMark scale factor override")
	tb := flag.Int("tb", 0, "TreeBank sentences override")
	ml := flag.Int("ml", 0, "MedLine citations override")
	ssRows := flag.Int("ssrows", 0, "SkyServer rows override")
	ssCols := flag.Int("sscols", 0, "SkyServer columns override")
	timeout := flag.Duration("timeout", 0, "per-query timeout override")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vxbench [flags] table1|table2|table3|fig8|ablations|verify|all")
		os.Exit(2)
	}

	var cfg bench.Config
	if *quick {
		cfg = bench.Quick(*work)
	} else {
		cfg = bench.Config{WorkDir: *work}
	}
	if *xkScale > 0 {
		cfg.XKScale = *xkScale
	}
	if *tb > 0 {
		cfg.TBSentences = *tb
	}
	if *ml > 0 {
		cfg.MLCitations = *ml
	}
	if *ssRows > 0 {
		cfg.SSRows = *ssRows
	}
	if *ssCols > 0 {
		cfg.SSCols = *ssCols
	}
	if *timeout > 0 {
		cfg.Timeout = *timeout
	}
	h := bench.New(cfg)
	defer h.Close()

	var workload []bench.Result // computed once, rendered as Tables 2 and 3
	var run func(name string) error
	run = func(name string) error {
		start := time.Now()
		var err error
		switch name {
		case "table1":
			stats, e := h.Table1()
			if e != nil {
				return e
			}
			fmt.Println("== Table 1: dataset statistics ==")
			bench.PrintTable1(os.Stdout, stats)
		case "table2", "table3":
			if workload == nil {
				workload, err = h.Table2()
				if err != nil {
					return err
				}
			}
			if name == "table2" {
				fmt.Println("== Table 2: capability matrix ==")
				bench.PrintTable2(os.Stdout, workload)
			} else {
				fmt.Println("== Table 3: query timings ==")
				bench.PrintTable3(os.Stdout, workload)
			}
		case "fig8":
			pts, e := h.Figure8([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
			if e != nil {
				return e
			}
			fmt.Println("== Figure 8: XMark scalability (VX) ==")
			bench.PrintFigure8(os.Stdout, pts)
		case "ablations":
			rs, e := h.Ablations()
			if e != nil {
				return e
			}
			fmt.Println("== Ablations ==")
			bench.PrintAblations(os.Stdout, rs)
		case "verify":
			fmt.Println("== VX vs reference interpreter ==")
			err = h.VerifyVX(os.Stdout)
		case "all":
			for _, sub := range []string{"table1", "table2", "table3", "fig8", "ablations"} {
				if err := run(sub); err != nil {
					return err
				}
				fmt.Println()
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		if err != nil {
			return err
		}
		fmt.Printf("(%s in %v)\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}
	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "vxbench:", err)
		os.Exit(1)
	}
}
