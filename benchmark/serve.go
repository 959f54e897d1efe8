package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"vxml/internal/core"
	"vxml/internal/qgraph"
	"vxml/internal/serve"
	"vxml/internal/vectorize"
	"vxml/internal/xq"
)

// serveWorkload is serve_zipf: one op is one POST /query through the
// server's handler. There are no sockets — on two shared cores loopback
// TCP measures the kernel and net/http's client — so a request is built
// in memory and the reply lands in an in-memory http.ResponseWriter.
type serveWorkload struct {
	s      *schedule
	sz     sizes
	bodies [][]byte // per input: the pre-encoded JSON request body

	repo    *vectorize.Repository
	handler http.Handler

	// By answer class, for the traced phase's serve.* metrics.
	hit, miss classTimes
	respBytes int64
	non200    int64
}

// classTimes totals handler time for one class of answer.
type classTimes struct {
	ns, n int64
}

func newServeWorkload(s *schedule, sz sizes) (*serveWorkload, error) {
	w := &serveWorkload{s: s, sz: sz}
	for _, q := range s.Inputs {
		body, err := json.Marshal(serve.QueryRequest{Query: q})
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, body)
	}
	return w, nil
}

func (w *serveWorkload) setUp(dir string, tr *tracer) (setupInfo, error) {
	return buildAll(dir, w.datasets(), vectorize.Options{FS: tr.fs()})
}

func (w *serveWorkload) open(dir string, tr *tracer) error {
	_, repoDir := w.sz.ServeData.paths(dir)
	// The default pool (32 MiB) holds the whole repository.
	repo, err := vectorize.Open(repoDir, vectorize.Options{FS: tr.fs()})
	if err != nil {
		return err
	}
	repo.Vectors = tr.set(repo.Vectors)
	w.repo = repo
	w.handler = serve.New(serve.Config{
		Repo:            repo,
		PlanCacheSize:   w.sz.ServePlanCache,
		ResultCacheSize: w.sz.ServeResultCache,
		Log:             log.New(io.Discard, "", 0),
	}).Handler()
	w.hit, w.miss, w.respBytes, w.non200 = classTimes{}, classTimes{}, 0, 0
	return nil
}

func (w *serveWorkload) close() error {
	if w.repo == nil {
		return nil
	}
	err := w.repo.Close()
	w.repo = nil
	return err
}

// response is the minimal in-memory http.ResponseWriter.
type response struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *response) Header() http.Header         { return r.header }
func (r *response) WriteHeader(status int)      { r.status = status }
func (r *response) Write(p []byte) (int, error) { return r.body.Write(p) }

func (r *response) reset() {
	if r.header == nil {
		r.header = make(http.Header)
	}
	clear(r.header)
	r.status = http.StatusOK
	r.body.Reset()
}

var (
	resultPrefix = []byte(`{"result":"`)
	resultSuffix = []byte(`","elapsed_us":`)
	cachedMark   = []byte(`"cached":true`)
)

func (w *serveWorkload) do(c *client, i int, tr *tracer) error {
	in := w.s.Ops[i][0]
	req, err := http.NewRequest(http.MethodPost, "/query", bytes.NewReader(w.bodies[in]))
	if err != nil {
		return err
	}
	c.resp.reset()
	t := tr.begin()
	w.handler.ServeHTTP(&c.resp, req)
	tr.end(spHandler, t)
	body := c.resp.body.Bytes()
	if c.resp.status != http.StatusOK {
		if tr != nil {
			w.non200++
		}
		return fmt.Errorf("%s: HTTP %d: %s", w.s.Labels[in], c.resp.status, bytes.TrimSpace(body))
	}
	// The reply is {"result":"<escaped XML>","elapsed_us":...}; only the
	// result is the same on every answer, and a JSON string cannot hold
	// an unescaped quote, so the suffix cannot occur inside it.
	end := bytes.Index(body, resultSuffix)
	if !bytes.HasPrefix(body, resultPrefix) || end < 0 {
		return fmt.Errorf("%s: unexpected reply %.80q", w.s.Labels[in], body)
	}
	c.outs = append(c.outs, output{Input: in, Data: body[len(resultPrefix):end]})
	if tr != nil {
		// One client in a traced phase, so plain fields do.
		d := tr.begin() - t
		class := &w.miss
		if bytes.Contains(body[end:], cachedMark) {
			class = &w.hit
		}
		class.ns += d
		class.n++
		w.respBytes += int64(len(body))
	}
	return nil
}

// replay runs ops[from:to) straight against a fresh core.Service over the
// same repository with the server's cache sizes, timing Query plus the
// result XML by answer class: the share of the handler that is not HTTP.
func (w *serveWorkload) replay(from, warm, to int) (hit, miss classTimes, err error) {
	svc := core.NewService(w.repo, core.ServiceConfig{
		PlanCacheSize:   w.sz.ServePlanCache,
		ResultCacheSize: w.sz.ServeResultCache,
	})
	for i := from; i < to; i++ {
		start := time.Now()
		res, src, err := svc.Query(context.Background(), w.s.Inputs[w.s.Ops[i][0]])
		if err == nil {
			_, err = res.XML()
		}
		d := int64(time.Since(start))
		if err != nil {
			return hit, miss, fmt.Errorf("service replay op %d: %w", i, err)
		}
		if i < from+warm {
			continue
		}
		class := &miss
		if src.Cached() {
			class = &hit
		}
		class.ns += d
		class.n++
	}
	return hit, miss, nil
}

func (w *serveWorkload) clients() int { return 2 }

func (w *serveWorkload) xmlAppended() int64 { return 0 }

// The server opens its repository once, outside every op.
func (w *serveWorkload) skeletonUses(string) map[string][2]float64 { return nil }

// traceExtras adds what only this workload can say about its traced
// phase (ops[cut:n), the first warm untimed): the handler's answer
// classes, the same ops replayed against a bare service, and — the
// handler hiding them — xq.Parse and qgraph.Build timed directly on each
// text the timed ops asked for the first time, which is when the plan
// cache misses.
func (w *serveWorkload) traceExtras(r *tracedRun, cut, warm, n int) error {
	r.handlerHit, r.handlerMiss = w.hit, w.miss
	r.respBytes, r.non200 = w.respBytes, w.non200
	var err error
	r.serviceHit, r.serviceMiss, err = w.replay(cut, warm, n)
	if err != nil {
		return err
	}
	seen := make([]bool, len(w.s.Inputs))
	for i := cut; i < n; i++ {
		in := w.s.Ops[i][0]
		if seen[in] {
			continue
		}
		seen[in] = true
		if i < cut+warm {
			continue
		}
		t := r.tr.begin()
		parsed, err := xq.Parse(w.s.Inputs[in])
		r.tr.end(spParse, t)
		if err != nil {
			return err
		}
		t = r.tr.begin()
		plan, err := qgraph.Build(parsed)
		r.tr.end(spBuild, t)
		if err != nil {
			return err
		}
		r.tr.planOps(len(plan.Ops))
	}
	return nil
}

func (w *serveWorkload) datasets() []dataset { return []dataset{w.sz.ServeData} }

// verify checks the first answer to every distinct text that was asked
// against the reference interpreter.
func (w *serveWorkload) verify(dir string, v *verifier, orc *oracle) error {
	for in := range w.s.Inputs {
		first := v.first[in].Load()
		if first == nil {
			continue // a tail text the Zipf draw never picked
		}
		var xml string
		if err := json.Unmarshal([]byte(`"`+first.Data+`"`), &xml); err != nil {
			return fmt.Errorf("%s: result is not a JSON string: %w", w.s.Labels[in], err)
		}
		if err := orc.check(w.sz.ServeData, dir, w.s.Inputs[in], xml); err != nil {
			return fmt.Errorf("%q: %w", w.s.Inputs[in], err)
		}
	}
	return nil
}
