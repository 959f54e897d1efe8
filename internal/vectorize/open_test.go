package vectorize

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"vxml/internal/datagen"
)

// createTreeBank builds a TreeBank repository under dir and closes it.
func createTreeBank(tb testing.TB, g datagen.TreeBank) string {
	tb.Helper()
	var doc bytes.Buffer
	if err := g.Generate(&doc); err != nil {
		tb.Fatal(err)
	}
	dir := filepath.Join(tb.TempDir(), "repo")
	repo, err := Create(&doc, dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// openAllocs is the mean allocation count of opening (and closing) the
// repository at dir.
func openAllocs(tb testing.TB, dir string) float64 {
	tb.Helper()
	return testing.AllocsPerRun(5, func() {
		repo, err := Open(dir, Options{})
		if err != nil {
			tb.Fatal(err)
		}
		repo.Close()
	})
}

// TestOpenAllocatesPerRepository pins that opening a repository allocates
// per repository, not per path class, skeleton node or vector: eight
// times the sentences (and several times the classes and vectors) may
// not cost even half as many allocations again.
func TestOpenAllocatesPerRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two TreeBank repositories")
	}
	small := openAllocs(t, createTreeBank(t, datagen.TreeBank{Sentences: 100}))
	large := openAllocs(t, createTreeBank(t, datagen.TreeBank{Sentences: 800}))
	t.Logf("Open allocations: %.0f at 100 sentences, %.0f at 800", small, large)
	if large > 1.5*small {
		t.Errorf("Open allocates %.0f times at 800 sentences, %.0f at 100: more than 1.5x, so it allocates per class, node or vector", large, small)
	}
}

// BenchmarkOpen measures opening a TreeBank repository: skeleton decode,
// class discovery, directory decode and reconciliation. The 600-sentence
// corpus has the cold_irregular benchmark's shape; 4,000 sentences is the
// full-scale document of Table 3.
func BenchmarkOpen(b *testing.B) {
	for _, g := range []datagen.TreeBank{
		{Sentences: 600, MaxDepth: 5},
		{Sentences: 4000, Seed: 1},
	} {
		b.Run(fmt.Sprintf("TB%d", g.Sentences), func(b *testing.B) {
			dir := createTreeBank(b, g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				repo, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				repo.Close()
			}
		})
	}
}
