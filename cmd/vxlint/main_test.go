package main

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"vxml/internal/analysis"
)

// unsortedDiags is deliberately shuffled and contains one exact
// duplicate: SortDiagnostics must order by file, line, column, analyzer,
// message and drop the duplicate, and the writer must render that
// canonical order byte-for-byte against the golden.
func unsortedDiags() []analysis.Diagnostic {
	d := func(file string, line, col int, a, msg string) analysis.Diagnostic {
		return analysis.Diagnostic{
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Analyzer: a,
			Message:  msg,
		}
	}
	return []analysis.Diagnostic{
		d("b/two.go", 9, 2, "recoverscope", "recover() outside a boundary"),
		d("a/one.go", 14, 5, "lockorder", "lock order cycle"),
		d("a/one.go", 3, 1, "lockguard", "access without holding the lock"),
		d("a/one.go", 3, 1, "corrupterr", "corruption error must wrap"),
		d("b/two.go", 9, 2, "recoverscope", "recover() outside a boundary"), // duplicate
		d("a/one.go", 3, 9, "lockguard", "access to cache"),
	}
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestOutputGoldenText(t *testing.T) {
	var buf bytes.Buffer
	writeText(&buf, analysis.SortDiagnostics(unsortedDiags()))
	golden(t, "golden.txt", buf.Bytes())
}

// Sorting is idempotent and stable: sorting the already-sorted slice
// changes nothing, so repeated runs diff cleanly.
func TestSortDeterministic(t *testing.T) {
	once := analysis.SortDiagnostics(unsortedDiags())
	twice := analysis.SortDiagnostics(once)
	if len(once) != len(twice) {
		t.Fatalf("re-sort changed length: %d != %d", len(once), len(twice))
	}
	for i := range once {
		if once[i] != twice[i] {
			t.Errorf("re-sort moved element %d: %v != %v", i, once[i], twice[i])
		}
	}
	if len(once) != 5 {
		t.Errorf("dedupe kept %d diagnostics, want 5", len(once))
	}
}
