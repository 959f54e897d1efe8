package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"vxml/internal/obs"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
)

// meteredEval opens the repository at dir with a fresh buffer pool (so
// page-fault counts do not depend on what earlier runs left cached),
// evaluates the plan once under a fresh TaskMeter (an evaluation scans in
// a fixed order, so LRU hits/misses are exactly reproducible),
// and returns the meter's final counters.
func meteredEval(t *testing.T, dir string, src string) obs.TaskCounters {
	t.Helper()
	repo, err := vectorize.Open(dir, vectorize.Options{PoolPages: 32})
	if err != nil {
		t.Fatalf("open repo: %v", err)
	}
	defer repo.Close()
	meter := &obs.TaskMeter{}
	ctx := obs.WithMeter(context.Background(), meter)
	eng := NewRepoEngine(repo, Options{})
	if _, err := eng.Eval(ctx, planFor(t, src)); err != nil {
		t.Fatalf("eval: %v", err)
	}
	return meter.Counters()
}

// TestTaskMeterAttribution: two concurrent evaluations, each over its own
// on-disk repository, are attributed independently — each query's meter
// matches its serial baseline exactly, and the two meters sum to the
// process-global counter deltas.
func TestTaskMeterAttribution(t *testing.T) {
	mkRepo := func(doc string) string {
		dir := t.TempDir()
		repo, err := vectorize.Create(strings.NewReader(doc), dir, vectorize.Options{PoolPages: 32})
		if err != nil {
			t.Fatalf("create repo: %v", err)
		}
		if err := repo.Close(); err != nil {
			t.Fatalf("close repo: %v", err)
		}
		return dir
	}
	dirA := mkRepo(genBib(300))
	dirB := mkRepo(genBib(200))
	queryA := `<result>
	 for $d in doc("bib.xml")/bib, $b in $d/book, $a in $d/article
	 where $b/author = $a/author and $b/publisher = 'P5'
	 return $b/title, $a/title
	 </result>`
	queryB := `<result>
	 for $b in doc("bib.xml")/bib/book
	 where $b/publisher = 'P3'
	 return $b/title
	 </result>`

	serialA := meteredEval(t, dirA, queryA)
	serialB := meteredEval(t, dirB, queryB)
	if serialA.PagesFaulted == 0 || serialB.PagesFaulted == 0 {
		t.Fatalf("serial baselines faulted no pages: A=%+v B=%+v", serialA, serialB)
	}
	if serialA.ChecksumVerifies != serialA.PagesFaulted {
		t.Errorf("checksum verifies (%d) != pages faulted (%d) with verification on",
			serialA.ChecksumVerifies, serialA.PagesFaulted)
	}

	before := obs.Snapshot()
	var wg sync.WaitGroup
	var concA, concB obs.TaskCounters
	wg.Add(2)
	go func() { defer wg.Done(); concA = meteredEval(t, dirA, queryA) }()
	go func() { defer wg.Done(); concB = meteredEval(t, dirB, queryB) }()
	wg.Wait()
	after := obs.Snapshot()

	if concA != serialA {
		t.Errorf("concurrent meter A diverged from serial:\nserial     %+v\nconcurrent %+v", serialA, concA)
	}
	if concB != serialB {
		t.Errorf("concurrent meter B diverged from serial:\nserial     %+v\nconcurrent %+v", serialB, concB)
	}

	delta := func(key string) int64 { return after[key] - before[key] }
	// Every pool miss during the two evaluations is a metered page fault:
	// a vector's open reads no page (its extents come from the directory
	// loaded with the repository), so every page read is a data page read
	// through the metered vector view.
	wantMisses := concA.PagesFaulted + concB.PagesFaulted
	if got := delta("storage.pool.misses"); got != wantMisses {
		t.Errorf("global pool misses delta = %d, want %d (metered faults + meta pages)", got, wantMisses)
	}
	if got, want := delta("core.tuples"), concA.Tuples+concB.Tuples; got != want {
		t.Errorf("global tuples delta = %d, want %d", got, want)
	}
}

// TestTaskMeterStaticEmpty: a statically-empty evaluation charges the
// short-circuit to the meter and touches nothing else.
func TestTaskMeterStaticEmpty(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	repo, err := vectorize.FromString(bibXML, syms)
	if err != nil {
		t.Fatalf("vectorize: %v", err)
	}
	eng := NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, Options{})
	meter := &obs.TaskMeter{}
	ctx := obs.WithMeter(context.Background(), meter)
	if _, err := eng.Eval(ctx, planFor(t, `for $j in /bib/journal return $j`)); err != nil {
		t.Fatalf("eval: %v", err)
	}
	got := meter.Counters()
	want := obs.TaskCounters{StaticEmpty: 1}
	if got != want {
		t.Errorf("static-empty meter = %+v, want %+v", got, want)
	}
}

// TestActiveQueryRegistryCancel: a long-running Eval is visible in
// obs.ActiveQueries while in flight, with live counters, and cancelling
// it through the registry makes Eval return the engine's usual
// cancellation error.
func TestActiveQueryRegistryCancel(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	repo, err := vectorize.FromString(genBib(3000), syms)
	if err != nil {
		t.Fatalf("vectorize: %v", err)
	}
	eng := NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, Options{})
	// A cross join with no predicate: ~4.5M result tuples, each copying
	// two subtrees — many seconds of emit work if never cancelled.
	src := `<result>
	 for $b in doc("bib.xml")/bib/book, $a in doc("bib.xml")/bib/article
	 return $b/title, $a/title
	 </result>`
	plan := planFor(t, src)
	ctx := obs.WithMeter(context.Background(), &obs.TaskMeter{Query: "meter_test cross join"})

	done := make(chan error, 1)
	go func() {
		_, err := eng.Eval(ctx, plan)
		done <- err
	}()

	// The query registers before its first operation runs, so it shows up
	// in the live listing almost immediately. Its emission folds its
	// tuple count into the meter every cancelCheckStride tuples, so the
	// listing shows tuples while the emission is still running, long
	// before it could finish.
	var id int64
	deadline := time.Now().Add(10 * time.Second)
	for id == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never appeared in obs.ActiveQueries with tuples > 0")
		}
		for _, q := range obs.ActiveQueries.List() {
			if q.Query == "meter_test cross join" && q.Counters.Tuples > 0 {
				id = q.ID
			}
		}
		if id == 0 {
			time.Sleep(time.Millisecond)
		}
	}

	if !obs.ActiveQueries.Cancel(id) {
		t.Fatalf("Cancel(%d) found no cancellable query", id)
	}
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Eval returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Eval did not return after registry cancel")
	}
	for _, q := range obs.ActiveQueries.List() {
		if q.ID == id {
			t.Fatalf("query %d still listed after completion", id)
		}
	}
}
