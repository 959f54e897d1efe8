package main

import (
	"bytes"
	"os"
	"path/filepath"
	"time"

	"vxml/internal/skeleton"
	"vxml/internal/storage"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
)

// tracedRun gathers what the per-layer metrics are computed from.
type tracedRun struct {
	tr       *tracer
	timed    phaseResult      // the traced timed phase
	setupObs map[string]int64 // obs registry deltas over the traced set-up pass
	xmlTimed int64            // XML bytes appended by the traced timed ops
	info     setupInfo
	repos    []string // repository directories, closed
	// uses is, per repository, how many skeleton decodes and class
	// registry builds one op causes there.
	uses map[string][2]float64
	// Answer-class times: through the handler, and from the same ops
	// replayed against a bare core.Service. Zero except on serve_zipf.
	handlerHit, handlerMiss, serviceHit, serviceMiss classTimes
	respBytes, non200                                int64
}

// layerMetrics fills m with every per-layer metric. Metrics of a layer the
// workload never enters stay zero.
func layerMetrics(m map[string]float64, r tracedRun) error {
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	ops := float64(r.timed.Attempted)
	perOp := func(total int64) float64 { return ratio(float64(total), ops) }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	setup, timed := &r.tr.setup, &r.tr.timed
	a := r.tr.analyse()

	// xmlmodel: a bare parse of the set-up documents; the result-XML call.
	var parseNS int64
	for _, path := range r.info.XMLPaths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		start := time.Now()
		err = xmlmodel.NewParser(f, xmlmodel.NewSymbols()).Run(xmlmodel.HandlerFunc(func(xmlmodel.Event) error { return nil }))
		parseNS += int64(time.Since(start))
		f.Close()
		if err != nil {
			return err
		}
	}
	m["xmlmodel.parse_ms"] = ms(parseNS)
	m["xmlmodel.serialize_ms_per_op"] = ms(timed.ns[spXML]) / ops

	// vectorize and skeleton: static facts from the repositories as they
	// are now, and Decode and NewClasses timed directly on skeleton.bin.
	m["vectorize.create_ms"] = ms(r.info.CreateNS)
	m["vectorize.create_mb_s"] = ratio(float64(r.info.XMLBytes)/1e6, float64(r.info.CreateNS)/1e9)
	m["vectorize.open_ms_per_op"] = ms(timed.ns[spOpen]) / ops
	m["vectorize.append_ms_per_op"] = ms(timed.ns[spAppend]) / ops
	for _, dir := range r.repos {
		repo, err := vectorize.Open(dir, vectorize.Options{})
		if err != nil {
			return err
		}
		m["vectorize.vectors"] += float64(len(repo.Vectors.Names()))
		m["skeleton.nodes"] += float64(repo.Skel.NumNodes())
		m["skeleton.edges"] += float64(repo.Skel.NumEdges())
		m["skeleton.classes"] += float64(repo.Classes.NumClasses())
		if err := repo.Close(); err != nil {
			return err
		}
		size, err := dirBytes(dir)
		if err != nil {
			return err
		}
		m["vectorize.disk_bytes"] += float64(size)

		data, err := storage.ReadFileChecksummed(storage.OsFS{}, filepath.Join(dir, "skeleton.bin"))
		if err != nil {
			return err
		}
		const reps = 5
		var decodeNS, classesNS int64
		for i := 0; i < reps; i++ {
			syms := xmlmodel.NewSymbols()
			start := time.Now()
			skel, err := skeleton.Decode(bytes.NewReader(data), syms)
			decodeNS += int64(time.Since(start))
			if err != nil {
				return err
			}
			start = time.Now()
			skeleton.NewClasses(skel, syms)
			classesNS += int64(time.Since(start))
		}
		m["skeleton.decode_ms_per_op"] += ms(decodeNS) / reps * r.uses[dir][0]
		m["skeleton.classes_ms_per_op"] += ms(classesNS) / reps * r.uses[dir][1]
	}

	m["vector.opens_per_op"] = perOp(timed.calls[spSetVector])
	m["vector.open_ms_per_op"] = ms(timed.ns[spSetVector]) / ops
	m["vector.scan_calls_per_op"] = perOp(timed.calls[spScan])
	m["vector.scan_ms_per_op"] = ms(timed.ns[spScan]) / ops
	m["vector.values_per_op"] = perOp(timed.values)
	m["vector.value_bytes_per_op"] = perOp(timed.valueBytes)
	m["vector.scan_mb_s"] = ratio(float64(timed.valueBytes)/1e6, float64(timed.ns[spScan])/1e9)

	// storage: the pool's own counters (the obs registry carries them
	// process-wide, across the per-op Opens), and the filesystem wrapper.
	o := r.timed.Obs
	hits, misses := o["storage.pool.hits"], o["storage.pool.misses"]
	m["storage.pool_hits_per_op"] = perOp(hits)
	m["storage.pool_misses_per_op"] = perOp(misses)
	m["storage.pool_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["storage.pool_evictions_per_op"] = perOp(o["storage.pool.evictions"])
	m["storage.pages_read_per_op"] = perOp(o["storage.pool.pages_read"])
	// Names without _per_op are the build's totals: what set-up cost the
	// device.
	m["storage.pages_written"] = float64(r.setupObs["storage.pool.pages_written"])
	m["storage.fs_opens"] = float64(setup.calls[spFSOpenFile])
	m["storage.fs_opens_per_op"] = perOp(timed.calls[spFSOpenFile])
	m["storage.fs_open_ms"] = ms(setup.ns[spFSOpenFile])
	m["storage.fs_reads_per_op"] = perOp(timed.calls[spFSReadAt] + timed.calls[spFSReadFile])
	m["storage.fs_read_bytes_per_op"] = perOp(timed.readBytes)
	m["storage.fs_read_ms_per_op"] = ms(timed.ns[spFSReadAt]+timed.ns[spFSReadFile]) / ops
	m["storage.fs_writes"] = float64(setup.calls[spFSWriteAt])
	m["storage.fs_write_bytes_per_xml_byte"] = ratio(float64(setup.writeBytes+timed.writeBytes), float64(r.info.XMLBytes+r.xmlTimed))
	m["storage.fs_syncs"] = float64(setup.calls[spFSSync] + setup.calls[spFSSyncDir])
	m["storage.fs_syncs_per_op"] = perOp(timed.calls[spFSSync] + timed.calls[spFSSyncDir])
	m["storage.fs_sync_ms_per_op"] = ms(timed.ns[spFSSync]+timed.ns[spFSSyncDir]) / ops

	m["xq.parse_us_per_op"] = float64(timed.ns[spParse]) / 1e3 / ops
	m["qgraph.build_us_per_op"] = float64(timed.ns[spBuild]) / 1e3 / ops
	m["qgraph.plan_ops_per_op"] = perOp(timed.planOps)

	// core, engine: spans exist where the benchmark itself calls Eval;
	// the counters are the engine's own, from the obs registry.
	m["core.eval_ms_per_op"] = ms(timed.ns[spEval]) / ops
	m["core.eval_self_ms_per_op"] = ms(a.self[spEval]) / ops
	for q, ns := range timed.evalNS {
		m["core.eval_ms."+q] = ms(ns) / ops
	}
	m["core.values_scanned_per_op"] = perOp(o["core.values_scanned"])
	m["core.rows_produced_per_op"] = perOp(o["core.rows_produced"])
	m["core.tuples_per_op"] = perOp(o["core.tuples"])
	m["core.runs_expanded_per_op"] = perOp(o["core.runs_expanded"])
	m["core.memo_hits_per_op"] = perOp(o["core.memo_hits"])
	m["core.vectors_opened_per_op"] = perOp(timed.calls[spSetVector])
	m["core.values_scanned_per_tuple"] = ratio(float64(o["core.values_scanned"]), float64(o["core.tuples"]))

	// core, service and serve: answer classes through the handler and
	// through the bare service.
	mean := func(c classTimes) float64 { return ratio(float64(c.ns), float64(c.n)) }
	m["core.service_hit_us"] = mean(r.serviceHit) / 1e3
	m["core.service_miss_ms"] = mean(r.serviceMiss) / 1e6
	rh, rm := o["core.result_cache_hits"], o["core.result_cache_misses"]
	ph, pm := o["core.plan_cache_hits"], o["core.plan_cache_misses"]
	m["core.result_cache_hit_ratio"] = ratio(float64(rh), float64(rh+rm))
	m["core.plan_cache_hit_ratio"] = ratio(float64(ph), float64(ph+pm))
	m["core.singleflight_followers"] = float64(o["core.singleflight_followers"])
	m["core.queries_shed"] = float64(o["core.queries_shed"])
	m["serve.handler_hit_us"] = mean(r.handlerHit) / 1e3
	m["serve.handler_miss_ms"] = mean(r.handlerMiss) / 1e6
	m["serve.self_hit_us"] = (mean(r.handlerHit) - mean(r.serviceHit)) / 1e3
	m["serve.self_miss_us"] = (mean(r.handlerMiss) - mean(r.serviceMiss)) / 1e3
	m["serve.response_bytes_per_op"] = perOp(r.respBytes)
	m["serve.non200"] = float64(r.non200)

	m["runtime.alloc_bytes_per_op"] = ratio(float64(r.timed.Mem.TotalAlloc), ops)
	m["runtime.allocs_per_op"] = ratio(float64(r.timed.Mem.Mallocs), ops)
	m["runtime.gc_cycles"] = float64(r.timed.Mem.NumGC)
	m["runtime.gc_pause_ms"] = float64(r.timed.Mem.PauseTotalNs) / 1e6

	m["trace.spans"] = float64(len(r.tr.spans))
	return nil
}
