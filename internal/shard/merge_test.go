package shard

import (
	"fmt"
	"strings"
	"testing"

	"vxml/internal/core"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
)

// TestMergeResultsAllocsPerValue pins MergeResults' loops: merging shard
// results allocates one object per value (the string vector.All copies
// each value into) and otherwise per vector and per skeleton node, never
// more per value. A closure made per value costs one more object each.
func TestMergeResultsAllocsPerValue(t *testing.T) {
	const shards = 3
	allocs := func(n int) float64 {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "<s><k>v%d</k></s>", i)
		}
		b.WriteString("</r>")
		results := make([]*core.Result, shards)
		for k := range results {
			repo, err := vectorize.FromString(b.String(), xmlmodel.NewSymbols())
			if err != nil {
				t.Fatal(err)
			}
			results[k] = &core.Result{Repo: repo}
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := MergeResults(results); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, large = 200, 5000
	a0, a1 := allocs(small), allocs(large)
	if perValue := (a1 - a0) / (shards * (large - small)); perValue > 1.01 {
		t.Errorf("allocs per merge: %.0f for %d values per shard, %.0f for %d (%.3f per value, want at most 1)", a0, small, a1, large, perValue)
	}
}
