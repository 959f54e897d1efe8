package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"vxml/internal/qgraph"
	"vxml/internal/storage"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// planEngine vectorizes doc over vecs (wrapping the repository's own set
// when wrap is non-nil) and plans src.
func planEngine(t testing.TB, doc, src string, wrap func(vector.Set) vector.Set) (*Engine, *qgraph.Plan) {
	t.Helper()
	syms := xmlmodel.NewSymbols()
	repo, err := vectorize.FromString(doc, syms)
	if err != nil {
		t.Fatalf("vectorize: %v", err)
	}
	q, err := xq.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := qgraph.Build(q)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	var vecs vector.Set = repo.Vectors
	if wrap != nil {
		vecs = wrap(vecs)
	}
	return NewEngine(repo.Skel, repo.Classes, vecs, syms, Options{}), plan
}

// Copying a returned subtree costs what the copied instance reaches: the
// allocations of one evaluation do not grow with the text classes below
// the returned class that the instance never touches.
func TestSubtreeCopyAllocsIgnoreUntouchedClasses(t *testing.T) {
	const src = `for $s in /r/s where $s/k = 'hit' return $s`
	const want = `<result><s><k>hit</k><a>1</a><b><c>2</c></b></s></result>`
	allocs := func(untouched int) float64 {
		var b strings.Builder
		b.WriteString(`<r><s><k>hit</k><a>1</a><b><c>2</c></b></s><s><k>miss</k>`)
		for i := 0; i < untouched; i++ {
			fmt.Fprintf(&b, "<t%d>x</t%d>", i, i)
		}
		b.WriteString(`</s></r>`)
		eng, plan := planEngine(t, b.String(), src, nil)
		res, err := eng.Eval(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultXML(t, res); got != want {
			t.Fatalf("%d untouched classes: result = %s, want %s", untouched, got, want)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := eng.Eval(context.Background(), plan); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(2000)
	if large != small {
		t.Errorf("allocs per Eval: %.0f with 100 untouched sibling text classes, %.0f with 2000", small, large)
	}
}

// TestEmitAllocsPerTuple pins emitAll's tuple loop: copying N returned
// subtrees of one shape from a paged repository allocates nothing per
// tuple beyond the output vectors' own growth. A closure or method value
// made per tuple (say, a fresh scan callback in scanText) costs one
// object each. Every value is one byte long, which Go turns into a string
// without allocating, so the values themselves cost nothing, and the
// vectors' growth is measured on its own and allowed for. (The in-memory
// engine is not used here: vector.Mem.Scan allocates a buffer per call,
// so per text class per tuple.)
func TestEmitAllocsPerTuple(t *testing.T) {
	const src = `for $s in /r/s return $s`
	allocs := func(n int) float64 {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "<s><k>v</k><a>%d</a></s>", i%10)
		}
		b.WriteString("</r>")
		repo, err := vectorize.Create(strings.NewReader(b.String()), "repo", vectorize.Options{PoolPages: 64, FS: storage.NewMemFS()})
		if err != nil {
			t.Fatal(err)
		}
		defer repo.Close()
		plan, err := qgraph.Build(xq.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		eng := NewRepoEngine(repo, Options{})
		out := vector.NewMemSet()
		if _, _, err := eng.evalInto(context.Background(), plan, out); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"/result/s/k", "/result/s/a"} {
			if v, err := out.Vector(name); err != nil || v.Len() != int64(n) {
				t.Fatalf("%d tuples: vector %s: %v, err %v", n, name, v, err)
			}
		}
		return testing.AllocsPerRun(10, func() {
			if _, _, err := eng.evalInto(context.Background(), plan, vector.NewMemSet()); err != nil {
				t.Fatal(err)
			}
		})
	}
	growth := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			var v vector.Mem
			for i := 0; i < n; i++ {
				v.Append("v")
			}
		})
	}
	const small, large = 200, 5000
	vecs := 2 * (growth(large) - growth(small))
	a0, a1 := allocs(small), allocs(large)
	if a1 > a0+vecs+4 {
		t.Errorf("allocs per evaluation: %.0f for %d tuples, %.0f for %d (%.0f of them the output vectors' growth)",
			a0, small, a1, large, vecs)
	}
}

// scanCountingSet counts the Scan calls made on its vectors.
type scanCountingSet struct {
	vector.Set
	scans *int
}

func (s scanCountingSet) Vector(name string) (vector.Vector, error) {
	v, err := s.Set.Vector(name)
	if err != nil {
		return nil, err
	}
	return scanCountingVector{v, s.scans}, nil
}

type scanCountingVector struct {
	vector.Vector
	scans *int
}

func (v scanCountingVector) Scan(start, n int64, fn func(pos int64, val []byte) error) error {
	*v.scans++
	return v.Vector.Scan(start, n, fn)
}

// A return path that selects a run of consecutive siblings copies the run
// at once: one Scan per text class per tuple, not one per sibling.
func TestReturnPathCopiesRunsInOneScan(t *testing.T) {
	const doc = `<r><g><p>1</p><p>2</p><p>3</p><p>4</p><q>z</q></g><g><p>5</p></g></r>`
	scans := 0
	eng, plan := planEngine(t, doc, `for $g in /r/g return $g/p`, func(s vector.Set) vector.Set {
		return scanCountingSet{s, &scans}
	})
	res, tr, err := eng.EvalTraced(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultXML(t, res), `<result><p>1</p><p>2</p><p>3</p><p>4</p><p>5</p></result>`; got != want {
		t.Fatalf("result = %s, want %s", got, want)
	}
	if scans != 2 {
		t.Errorf("Scan calls = %d, want 2 (one per tuple)", scans)
	}
	if st := tr.Total; st.ValuesScanned != 5 {
		t.Errorf("ValuesScanned = %d, want 5", st.ValuesScanned)
	}
}
