package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"vxml/internal/qgraph"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// cancelSetup vectorizes bibXML and plans q0 without evaluating, so tests
// control the context passed to Eval.
func cancelSetup(t *testing.T) (*Engine, *qgraph.Plan) {
	t.Helper()
	syms := xmlmodel.NewSymbols()
	repo, err := vectorize.FromString(bibXML, syms)
	if err != nil {
		t.Fatalf("vectorize: %v", err)
	}
	q, err := xq.Parse(q0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := qgraph.Build(q)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, Options{}), plan
}

// TestEvalCancelled: a cancelled context makes Eval return context.Canceled,
// and the engine stays usable — the next Eval with a live context produces
// the full, correct result.
func TestEvalCancelled(t *testing.T) {
	eng, plan := cancelSetup(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Eval(ctx, plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("Eval with cancelled ctx: err = %v, want context.Canceled", err)
	}

	res, err := eng.Eval(context.Background(), plan)
	if err != nil {
		t.Fatalf("Eval after cancellation: %v", err)
	}
	got := resultXML(t, res)
	if !strings.Contains(got, "<title>Curation</title>") || !strings.Contains(got, "<title>XPath</title>") {
		t.Errorf("result after cancellation incomplete:\n%s", got)
	}
}

// TestReaderScanPollsContext: a scan observes cancellation within one
// cancelCheckStride of values. The callback cancels the evaluation's
// context on the first value of a scan three strides long; the scan must
// stop with context.Canceled before the callback has seen more than one
// stride of values.
func TestReaderScanPollsContext(t *testing.T) {
	const n = 3 * cancelCheckStride
	doc := "<r>" + strings.Repeat("<v>x</v>", n) + "</r>"
	syms := xmlmodel.NewSymbols()
	repo, err := vectorize.FromString(doc, syms)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	x := newEvalContext(eng, ctx)
	defer x.closeReaders()
	rd, err := x.readerFor(eng.Classes.Resolve("/r/v/#"))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	err = rd.Scan(0, n, func(int64, []byte) error {
		if seen++; seen == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("scan of %d values cancelled on the first: err = %v, want context.Canceled", n, err)
	}
	if seen > cancelCheckStride {
		t.Errorf("scan went on for %d values after cancellation, want at most %d", seen, cancelCheckStride)
	}
}
