package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vxml/internal/obs"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
)

// mkDiskRepo vectorizes doc into a fresh on-disk repository and closes
// it, returning the directory for tests to reopen with a cold pool.
func mkDiskRepo(t *testing.T, doc string) string {
	t.Helper()
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

// waitCounter polls a global counter until it reaches want past base.
func waitCounter(t *testing.T, c *obs.Counter, base, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Load()-base < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want delta %d", c.Load()-base, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

const svcQuery = `<result>
 for $b in doc("bib.xml")/bib/book
 where $b/publisher = 'P3'
 return $b/title
 </result>`

// TestServiceSingleFlight: N identical concurrent queries through one
// Service collapse to exactly one evaluation. The leader's meter matches
// the serial baseline, the global storage deltas account for exactly one
// evaluation's worth of faults, and every follower's meter reconciles to
// a single zero-fault cache hit.
func TestServiceSingleFlight(t *testing.T) {
	// Two identical repositories: A supplies the serial baseline meter, B
	// serves the concurrent flight, so baseline faults are cold-pool cold
	// for both.
	doc := genBib(300)
	dirA := mkDiskRepo(t, doc)
	dirB := mkDiskRepo(t, doc)
	serial := meteredEval(t, dirA, svcQuery)
	if serial.PagesFaulted == 0 {
		t.Fatalf("serial baseline faulted no pages: %+v", serial)
	}

	repo, err := vectorize.Open(dirB, vectorize.Options{PoolPages: 32})
	if err != nil {
		t.Fatalf("open repo: %v", err)
	}
	defer repo.Close()
	// Result cache off: every request must either lead or follow the
	// flight, never hit a cache.
	svc := NewService(repo, ServiceConfig{PlanCacheSize: 8})
	gate := make(chan struct{})
	svc.testLeaderGate = func(string, uint64) { <-gate }

	const clients = 8
	followerBase := obs.GetCounter("core.singleflight_followers").Load()
	before := obs.Snapshot()

	var wg sync.WaitGroup
	meters := make([]*obs.TaskMeter, clients)
	sources := make([]Source, clients)
	results := make([]*Result, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		meters[i] = &obs.TaskMeter{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := obs.WithMeter(context.Background(), meters[i])
			results[i], sources[i], errs[i] = svc.Query(ctx, svcQuery)
		}(i)
	}
	// The leader is parked in the gate; once every other client has
	// registered as a follower, release it.
	waitCounter(t, obs.GetCounter("core.singleflight_followers"), followerBase, clients-1)
	close(gate)
	wg.Wait()
	after := obs.Snapshot()

	var leaders, followers int
	leaderIdx := -1
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		switch sources[i] {
		case SourceEval:
			leaders++
			leaderIdx = i
		case SourceFollower:
			followers++
		default:
			t.Errorf("client %d source = %v, want eval or single-flight", i, sources[i])
		}
	}
	if leaders != 1 || followers != clients-1 {
		t.Fatalf("got %d leaders and %d followers, want 1 and %d", leaders, followers, clients-1)
	}

	leader := meters[leaderIdx].Counters()
	if leader != serial {
		t.Errorf("leader meter diverged from serial baseline:\nserial %+v\nleader %+v", serial, leader)
	}
	for i := 0; i < clients; i++ {
		if i == leaderIdx {
			continue
		}
		if results[i] != results[leaderIdx] {
			t.Errorf("follower %d got a different *Result than the leader", i)
		}
		got := meters[i].Counters()
		want := obs.TaskCounters{CacheHits: 1}
		if got != want {
			t.Errorf("follower %d meter = %+v, want %+v (a follower does no storage work)", i, got, want)
		}
	}

	delta := func(key string) int64 { return after[key] - before[key] }
	// Exactly one evaluation's worth of global work: the flight faulted
	// what the serial baseline faulted (the attributed open path charges
	// per-vector meta pages to the leader too), and the engine ran once.
	if got, want := delta("storage.pool.misses"), leader.PagesFaulted; got != want {
		t.Errorf("global pool misses delta = %d, want %d (one evaluation)", got, want)
	}
	if got := delta("core.queries"); got != 1 {
		t.Errorf("global queries delta = %d, want 1", got)
	}
	if got := delta("core.singleflight_followers"); got != int64(clients-1) {
		t.Errorf("followers counter delta = %d, want %d", got, clients-1)
	}
}

// TestServiceResultCache: a repeated query is served from the result
// cache — same *Result, same bytes, one CacheHit on the request's meter
// — and a differently-spelled variant of the same query still hits both
// caches through canonicalization.
func TestServiceResultCache(t *testing.T) {
	dir := mkDiskRepo(t, genBib(120))
	repo, err := vectorize.Open(dir, vectorize.Options{PoolPages: 32})
	if err != nil {
		t.Fatalf("open repo: %v", err)
	}
	defer repo.Close()
	svc := NewService(repo, ServiceConfig{PlanCacheSize: 8, ResultCacheSize: 8})

	r1, src1, err := svc.Query(context.Background(), svcQuery)
	if err != nil {
		t.Fatalf("query 1: %v", err)
	}
	if src1 != SourceEval || src1.Cached() {
		t.Fatalf("first query source = %v, want eval", src1)
	}
	x1, err := r1.XML()
	if err != nil {
		t.Fatalf("xml: %v", err)
	}
	if !strings.Contains(x1, "<title>") {
		t.Fatalf("result has no titles:\n%s", x1)
	}

	meter := &obs.TaskMeter{}
	r2, src2, err := svc.Query(obs.WithMeter(context.Background(), meter), svcQuery)
	if err != nil {
		t.Fatalf("query 2: %v", err)
	}
	if src2 != SourceResultCache || !src2.Cached() {
		t.Errorf("repeat source = %v, want result-cache", src2)
	}
	if r2 != r1 {
		t.Error("repeat query returned a different *Result")
	}
	if got, want := meter.Counters(), (obs.TaskCounters{CacheHits: 1}); got != want {
		t.Errorf("cached request meter = %+v, want %+v", got, want)
	}

	// A re-spelled variant (extra whitespace, renamed variable) resolves
	// to the same canonical key, so it reuses both the plan and the
	// result.
	hitsBefore := obs.GetCounter("core.plan_cache_hits").Load()
	variant := `<result> for   $x   in doc("bib.xml")/bib/book
	  where $x/publisher = 'P3'   return $x/title </result>`
	r3, src3, err := svc.Query(context.Background(), variant)
	if err != nil {
		t.Fatalf("variant query: %v", err)
	}
	if src3 != SourceResultCache {
		t.Errorf("variant source = %v, want result-cache", src3)
	}
	if r3 != r1 {
		t.Error("variant returned a different *Result")
	}
	if obs.GetCounter("core.plan_cache_hits").Load() == hitsBefore {
		t.Error("variant spelling did not hit the plan cache")
	}
}

// TestServiceEpochInvalidation: an Append bumps the repository epoch, so
// the next identical query re-evaluates and sees the appended data
// rather than the cached pre-append result.
func TestServiceEpochInvalidation(t *testing.T) {
	dir := mkDiskRepo(t, genBib(60))
	repo, err := vectorize.Open(dir, vectorize.Options{PoolPages: 32})
	if err != nil {
		t.Fatalf("open repo: %v", err)
	}
	defer repo.Close()
	svc := NewService(repo, ServiceConfig{PlanCacheSize: 8, ResultCacheSize: 8})

	r1, src1, err := svc.Query(context.Background(), svcQuery)
	if err != nil {
		t.Fatalf("query 1: %v", err)
	}
	if src1 != SourceEval {
		t.Fatalf("first query source = %v, want eval", src1)
	}
	if _, src2, err := svc.Query(context.Background(), svcQuery); err != nil || src2 != SourceResultCache {
		t.Fatalf("pre-append repeat: src=%v err=%v, want result-cache", src2, err)
	}

	const marker = "Fresh After Append"
	frag := `<bib><book><publisher>P3</publisher><author>AX</author><title>` +
		marker + `</title><price>11</price></book></bib>`
	if err := repo.Append(strings.NewReader(frag)); err != nil {
		t.Fatalf("append: %v", err)
	}

	r3, src3, err := svc.Query(context.Background(), svcQuery)
	if err != nil {
		t.Fatalf("post-append query: %v", err)
	}
	if src3 != SourceEval {
		t.Fatalf("post-append source = %v, want eval (append must invalidate)", src3)
	}
	if r3.Epoch != r1.Epoch+1 {
		t.Errorf("post-append result epoch = %d, want %d", r3.Epoch, r1.Epoch+1)
	}
	x1, _ := r1.XML()
	x3, err := r3.XML()
	if err != nil {
		t.Fatalf("xml: %v", err)
	}
	if strings.Contains(x1, marker) {
		t.Errorf("pre-append result contains appended book:\n%s", x1)
	}
	if !strings.Contains(x3, marker) {
		t.Errorf("post-append result missing appended book:\n%s", x3)
	}
}

// TestServiceEpochMidAppend: an evaluation that races a committing
// Append stores its result under the epoch captured before it ran, so
// the post-append lookup can never be satisfied by it — the invalidation
// invariant under the worst interleaving (epoch read, then Append
// commits fully, then the evaluation finishes and caches).
func TestServiceEpochMidAppend(t *testing.T) {
	dir := mkDiskRepo(t, genBib(60))
	repo, err := vectorize.Open(dir, vectorize.Options{PoolPages: 32})
	if err != nil {
		t.Fatalf("open repo: %v", err)
	}
	defer repo.Close()
	svc := NewService(repo, ServiceConfig{PlanCacheSize: 8, ResultCacheSize: 8})
	epochBefore := repo.Epoch()

	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testLeaderGate = func(_ string, epoch uint64) {
		// Only the racing evaluation parks; the post-append query leads
		// under the bumped epoch and passes straight through.
		if epoch == epochBefore {
			once.Do(func() { close(parked) })
			<-release
		}
	}

	var (
		raceRes *Result
		raceSrc Source
		raceErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		raceRes, raceSrc, raceErr = svc.Query(context.Background(), svcQuery)
	}()
	<-parked

	// The Append commits in full while the evaluation (which captured the
	// old epoch) is still in flight.
	frag := `<bib><book><publisher>P3</publisher><author>AX</author><title>Mid Append</title><price>9</price></book></bib>`
	if err := repo.Append(strings.NewReader(frag)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if got := repo.Epoch(); got != epochBefore+1 {
		t.Fatalf("epoch after append = %d, want %d", got, epochBefore+1)
	}
	close(release)
	wg.Wait()
	if raceErr != nil {
		t.Fatalf("racing query: %v", raceErr)
	}
	if raceSrc != SourceEval || raceRes.Epoch != epochBefore {
		t.Fatalf("racing query src=%v epoch=%d, want eval under epoch %d", raceSrc, raceRes.Epoch, epochBefore)
	}

	// The racing result was cached under the pre-append key, so the next
	// query must evaluate fresh — never serve a result that raced the
	// append.
	res, src, err := svc.Query(context.Background(), svcQuery)
	if err != nil {
		t.Fatalf("post-append query: %v", err)
	}
	if src != SourceEval {
		t.Fatalf("post-append source = %v, want eval (mid-append result must not be served)", src)
	}
	if res.Epoch != epochBefore+1 {
		t.Errorf("post-append result epoch = %d, want %d", res.Epoch, epochBefore+1)
	}
	if x, _ := res.XML(); !strings.Contains(x, "Mid Append") {
		t.Errorf("post-append result missing appended book:\n%s", x)
	}
}

// TestServiceAdmissionShed: with MaxInflight=1 and AdmitWait=0, a second
// distinct query is shed immediately with ErrOverloaded while the first
// holds the slot.
func TestServiceAdmissionShed(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	mem, err := vectorize.FromString(genBib(60), syms)
	if err != nil {
		t.Fatalf("vectorize: %v", err)
	}
	svc := NewMemService(mem, ServiceConfig{MaxInflight: 1, PlanCacheSize: 8})
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testLeaderGate = func(canon string, _ uint64) {
		// Park only query A — it holds the single admission slot.
		if strings.Contains(canon, "P3") {
			once.Do(func() { close(parked) })
			<-release
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var errA error
	go func() {
		defer wg.Done()
		_, _, errA = svc.Query(context.Background(),
			`for $b in doc("bib.xml")/bib/book where $b/publisher = 'P3' return $b/title`)
	}()
	<-parked

	shedBefore := obs.GetCounter("core.queries_shed").Load()
	_, _, errB := svc.Query(context.Background(),
		`for $b in doc("bib.xml")/bib/book where $b/publisher = 'P5' return $b/title`)
	if !errors.Is(errB, ErrOverloaded) {
		t.Errorf("query B error = %v, want ErrOverloaded", errB)
	}
	if obs.GetCounter("core.queries_shed").Load() == shedBefore {
		t.Error("shed counter did not move")
	}
	close(release)
	wg.Wait()
	if errA != nil {
		t.Fatalf("query A: %v", errA)
	}
}

// TestServiceAdmissionQueueReleases exercises the actual concurrent
// queue path: B queues while A holds the slot, then A finishes and B is
// admitted.
func TestServiceAdmissionQueueReleases(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	mem, err := vectorize.FromString(genBib(60), syms)
	if err != nil {
		t.Fatalf("vectorize: %v", err)
	}
	svc := NewMemService(mem, ServiceConfig{MaxInflight: 1, AdmitWait: 10 * time.Second, PlanCacheSize: 8})
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testLeaderGate = func(canon string, _ uint64) {
		if strings.Contains(canon, "P3") {
			once.Do(func() { close(parked) })
			<-release
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var errA error
	go func() {
		defer wg.Done()
		_, _, errA = svc.Query(context.Background(),
			`for $b in doc("bib.xml")/bib/book where $b/publisher = 'P3' return $b/title`)
	}()
	<-parked

	waitsBase := obs.GetCounter("core.admission_waits").Load()
	var errB error
	var resB *Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		resB, _, errB = svc.Query(context.Background(),
			`for $b in doc("bib.xml")/bib/book where $b/publisher = 'P5' return $b/title`)
	}()
	// B cannot be admitted until A drains; wait until it is queued, then
	// let A finish.
	waitCounter(t, obs.GetCounter("core.admission_waits"), waitsBase, 1)
	close(release)
	wg.Wait()
	if errA != nil {
		t.Fatalf("query A: %v", errA)
	}
	if errB != nil {
		t.Fatalf("queued query B: %v", errB)
	}
	if x, _ := resB.XML(); !strings.Contains(x, "<title>") {
		t.Errorf("queued query returned empty result:\n%s", x)
	}
}

// TestServiceAdmissionQueueCancelled: a query cancelled while it queues
// for admission returns its context's error at the next poll, not the
// overload error once AdmitWait runs out.
func TestServiceAdmissionQueueCancelled(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	mem, err := vectorize.FromString(genBib(60), syms)
	if err != nil {
		t.Fatalf("vectorize: %v", err)
	}
	const admitWait = 10 * time.Second
	svc := NewMemService(mem, ServiceConfig{MaxInflight: 1, AdmitWait: admitWait, PlanCacheSize: 8})
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testLeaderGate = func(canon string, _ uint64) {
		if strings.Contains(canon, "P3") {
			once.Do(func() { close(parked) })
			<-release
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(release)
	wg.Add(1)
	go func() {
		defer wg.Done()
		svc.Query(context.Background(),
			`for $b in doc("bib.xml")/bib/book where $b/publisher = 'P3' return $b/title`)
	}()
	<-parked

	waitsBase := obs.GetCounter("core.admission_waits").Load()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errB := make(chan error, 1)
	go func() {
		_, _, err := svc.Query(ctx,
			`for $b in doc("bib.xml")/bib/book where $b/publisher = 'P5' return $b/title`)
		errB <- err
	}()
	waitCounter(t, obs.GetCounter("core.admission_waits"), waitsBase, 1)
	cancel()
	select {
	case err := <-errB:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("queued query cancelled: error %v, want context.Canceled", err)
		}
	case <-time.After(admitWait / 2):
		t.Fatal("queued query still waiting long after its cancellation")
	}
}

// TestServiceFollowerRetry: when the leader dies of its own cancelled
// context, a follower whose context is still live retries the flight and
// completes the query itself.
func TestServiceFollowerRetry(t *testing.T) {
	dir := mkDiskRepo(t, genBib(60))
	repo, err := vectorize.Open(dir, vectorize.Options{PoolPages: 32})
	if err != nil {
		t.Fatalf("open repo: %v", err)
	}
	defer repo.Close()
	svc := NewService(repo, ServiceConfig{PlanCacheSize: 8, ResultCacheSize: 8})

	parked := make(chan struct{})
	release := make(chan struct{})
	var leads atomic.Int32
	svc.testLeaderGate = func(string, uint64) {
		// Park only the first leader (the one with the dead context); the
		// follower's retry lead runs through.
		if leads.Add(1) == 1 {
			close(parked)
			<-release
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	var leaderErr error
	go func() {
		defer wg.Done()
		_, _, leaderErr = svc.Query(cancelled, svcQuery)
	}()
	<-parked

	followerBase := obs.GetCounter("core.singleflight_followers").Load()
	retryBase := obs.GetCounter("core.singleflight_retries").Load()
	var (
		fRes *Result
		fSrc Source
		fErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		fRes, fSrc, fErr = svc.Query(context.Background(), svcQuery)
	}()
	waitCounter(t, obs.GetCounter("core.singleflight_followers"), followerBase, 1)
	close(release)
	wg.Wait()

	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("cancelled leader error = %v, want context.Canceled", leaderErr)
	}
	if fErr != nil {
		t.Fatalf("follower retry failed: %v", fErr)
	}
	if fSrc != SourceEval {
		t.Errorf("retried follower source = %v, want eval (it led the retry)", fSrc)
	}
	if got := obs.GetCounter("core.singleflight_retries").Load() - retryBase; got < 1 {
		t.Errorf("retry counter delta = %d, want >= 1", got)
	}
	if x, err := fRes.XML(); err != nil || !strings.Contains(x, "<title>") {
		t.Errorf("retried result wrong (err=%v):\n%s", err, x)
	}
}

// TestLRUEviction: the bounded cache stays within capacity, CLOCK
// eviction gives recently-hit entries a second chance over cold ones,
// and replacing a key reclaims its stale slot.
func TestLRUEviction(t *testing.T) {
	c := newLRU[string, int](2)
	c.put("a", 1)
	c.put("b", 2)
	// First overflow: every entry is freshly referenced, so the sweep
	// clears one full lap and then evicts the oldest slot.
	c.put("c", 3)
	if _, ok := c.get("a"); ok {
		t.Error("a survived the first overflow (oldest unreferenced entry)")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// b's hit sets its reference bit; the next overflow must evict the
	// unreferenced c, not b.
	if v, ok := c.get("b"); !ok || v != 2 {
		t.Fatalf("b = %d,%v, want 2,true", v, ok)
	}
	c.put("d", 4)
	if _, ok := c.get("c"); ok {
		t.Error("c survived eviction over the recently-hit b")
	}
	if v, ok := c.get("b"); !ok || v != 2 {
		t.Errorf("b = %d,%v, want 2,true (second chance)", v, ok)
	}
	if v, ok := c.get("d"); !ok || v != 4 {
		t.Errorf("d = %d,%v, want 4,true", v, ok)
	}

	// Replacing a live key keeps one live entry and stays bounded.
	c.put("d", 44)
	if v, ok := c.get("d"); !ok || v != 44 {
		t.Errorf("d after replace = %d,%v, want 44,true", v, ok)
	}
	for i := 0; i < 10; i++ {
		c.put("e", i)
	}
	if c.len() > 2 {
		t.Errorf("len = %d after repeated puts, want <= 2", c.len())
	}
}

// TestLRUConcurrentPutGet: goroutines putting and getting over more keys
// than the cache holds keep it bounded and every hit right; under -race
// an insert or eviction outside the mutex is reported.
func TestLRUConcurrentPutGet(t *testing.T) {
	const capacity, keys, workers, rounds = 4, 32, 4, 2000
	c := newLRU[int, int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (i*7 + w) % keys
				if v, ok := c.get(k); ok && v != 10*k {
					t.Errorf("get(%d) = %d, want %d", k, v, 10*k)
					return
				}
				c.put(k, 10*k)
			}
		}(w)
	}
	wg.Wait()
	if n := c.len(); n > capacity {
		t.Errorf("len = %d after concurrent puts, want <= %d", n, capacity)
	}
}
