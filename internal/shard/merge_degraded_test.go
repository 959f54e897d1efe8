package shard

import (
	"errors"
	"fmt"
	"testing"

	"vxml/internal/core"
	"vxml/internal/skeleton"
	"vxml/internal/storage"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
)

// failingSet stands in for a shard result whose vectors cannot be read
// back (a corrupt page surfacing at merge time).
type failingSet struct{ err error }

func (s *failingSet) Names() []string                      { return []string{"v"} }
func (s *failingSet) Vector(string) (vector.Vector, error) { return nil, s.err }

func minimalResult(t *testing.T, vectors vector.Set) *core.Result {
	t.Helper()
	syms := xmlmodel.NewSymbols()
	b := skeleton.NewBuilder()
	skel := b.Finish(b.Make(syms.Intern("r"), nil))
	return &core.Result{
		Repo: &vectorize.MemRepository{Syms: syms, Skel: skel, Vectors: vectors},
	}
}

// A shard whose result vectors fail to read must surface from
// MergeResults as a DegradedError naming that shard — scatter's
// typed per-shard failure — with the storage taxonomy (errors.Is on
// ErrCorrupt) still visible through the wrap.
func TestMergeResultsDegradedOnVectorFailure(t *testing.T) {
	readErr := fmt.Errorf("read page 3: %w", storage.ErrCorrupt)
	results := []*core.Result{
		minimalResult(t, vector.NewMemSet()),
		minimalResult(t, &failingSet{err: readErr}),
	}
	_, err := MergeResults(results)
	if err == nil {
		t.Fatal("MergeResults succeeded with an unreadable shard vector")
	}
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("error %v is not a DegradedError", err)
	}
	if deg.Shard != 1 {
		t.Errorf("DegradedError.Shard = %d, want 1", deg.Shard)
	}
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("error %v does not unwrap to storage.ErrCorrupt", err)
	}
}

// The union view's concatenated set classifies the same way: a shard
// vector that fails to open is a typed per-shard degradation.
func TestConcatSetVectorDegradedOnFailure(t *testing.T) {
	openErr := fmt.Errorf("open vector: %w", storage.ErrCorrupt)
	s := newConcatSet([]vector.Set{vector.NewMemSet(), &failingSet{err: openErr}})
	_, err := s.Vector("v")
	if err == nil {
		t.Fatal("concatSet.Vector succeeded with an unreadable part")
	}
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("error %v is not a DegradedError", err)
	}
	if deg.Shard != 1 {
		t.Errorf("DegradedError.Shard = %d, want 1", deg.Shard)
	}
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("error %v does not unwrap to storage.ErrCorrupt", err)
	}
}
