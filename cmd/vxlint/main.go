// Command vxlint runs the repository's invariant analyzers (see
// internal/analysis) over a package pattern and reports violations.
//
// Usage:
//
//	vxlint [-only name,name] [-list] [packages]
//
// Patterns default to ./... in the current directory. Exit status is 0 when
// clean, 1 when any analyzer reports a finding, 2 on a load or usage error.
// Output is deterministic: findings sort by file, line, column, analyzer
// and message, with exact duplicates removed, so runs diff cleanly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vxml/internal/analysis"
)

func main() {
	var (
		only = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range suite {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(os.Stderr, "vxlint: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		suite = filtered
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.Run(".", patterns, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vxlint: %v\n", err)
		os.Exit(2)
	}
	writeText(os.Stdout, diags)
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "vxlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// writeText emits findings one per line in file:line:col form, the form
// CI's problem matcher (.github/vxlint-problem-matcher.json) parses.
func writeText(w io.Writer, diags []analysis.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
}
