package shard

import (
	"fmt"

	"vxml/internal/core"
	"vxml/internal/skeleton"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
)

// The merge stage: per-shard (S', V') results concatenate into one
// result exactly the way documents concatenate into a repository. The
// merged skeleton is the result root with every shard root's child edges
// spliced in shard order — rebuilt through a fresh Builder, so identical
// subtrees from different shards hash-cons together and adjacent
// identical edges across a shard boundary re-merge into one counted run
// (the same stepwise run-compression the engine applies). Data vectors
// concatenate per class path in the same shard-major order, which is
// federation document order, so positions line up with the merged
// skeleton's occurrence order by construction.

// MergeResults combines per-shard results (index-aligned with the
// federation's shards, all non-nil) into one Result. Stats are summed;
// the merged result is statically empty only when every shard's was.
// The merged Trace is nil — per-shard traces describe per-shard work and
// do not concatenate meaningfully. A shard whose result vectors cannot
// be read surfaces as a DegradedError naming that shard, the same typed
// failure the coordinator uses for every other per-shard fault.
//
//vx:hot the scatter-gather merge runs once per federated query
func MergeResults(results []*core.Result) (*core.Result, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("shard: merge: no shard results")
	}
	syms := xmlmodel.NewSymbols()
	b := skeleton.NewBuilder()
	out := vector.NewMemSet()
	merged := &core.Result{StaticallyEmpty: true}
	resultTag := xmlmodel.NoSym
	totalEdges := 0
	for _, r := range results {
		if r != nil && r.Repo != nil {
			totalEdges += len(r.Repo.Skel.Root.Edges)
		}
	}
	edges := make([]skeleton.Edge, 0, totalEdges)
	for k, r := range results {
		if r == nil {
			return nil, fmt.Errorf("shard: merge: shard %d has no result", k)
		}
		// Tag symbols are per-result interning orders, so subtrees import
		// by translating tag names into the merged symbol table.
		tag := syms.Intern(r.Repo.Syms.Name(r.Repo.Skel.Root.Tag))
		if resultTag == xmlmodel.NoSym {
			resultTag = tag
		} else if tag != resultTag {
			return nil, fmt.Errorf("shard: merge: shard %d result root <%s> differs from <%s>",
				k, syms.Name(tag), syms.Name(resultTag))
		}
		memo := make(map[*skeleton.Node]*skeleton.Node)
		for _, e := range r.Repo.Skel.Root.Edges {
			edges = append(edges, skeleton.Edge{
				Child: importTranslated(b, syms, r.Repo.Syms, e.Child, memo),
				Count: e.Count,
			})
		}
		for _, name := range r.Repo.Vectors.Names() {
			v, err := r.Repo.Vectors.Vector(name)
			if err != nil {
				return nil, &DegradedError{Shard: k, Err: fmt.Errorf("merge vector %s: %w", name, err)}
			}
			vals, err := vector.All(v)
			if err != nil {
				return nil, &DegradedError{Shard: k, Err: fmt.Errorf("merge vector %s: %w", name, err)}
			}
			mv := out.Add(name)
			for _, val := range vals {
				mv.Append(val)
			}
		}
		merged.Stats.VectorsOpened += r.Stats.VectorsOpened
		merged.Stats.ValuesScanned += r.Stats.ValuesScanned
		merged.Stats.RowsProduced += r.Stats.RowsProduced
		merged.Stats.Tuples += r.Stats.Tuples
		merged.Stats.RunsExpanded += r.Stats.RunsExpanded
		merged.Stats.IndexHits += r.Stats.IndexHits
		merged.StaticallyEmpty = merged.StaticallyEmpty && r.StaticallyEmpty
	}
	skel := b.Finish(b.Make(resultTag, edges))
	merged.Repo = &vectorize.MemRepository{
		Syms:    syms,
		Skel:    skel,
		Classes: skeleton.NewClasses(skel, syms),
		Vectors: out,
	}
	return merged, nil
}

// importTranslated rebuilds src's subtree in builder b, interning every
// tag name from srcSyms into dstSyms — Builder.Import with a symbol
// translation, for importing across repositories that interned tags in
// different orders. memo dedups shared subtrees within one shard result.
func importTranslated(b *skeleton.Builder, dstSyms, srcSyms *xmlmodel.Symbols, n *skeleton.Node, memo map[*skeleton.Node]*skeleton.Node) *skeleton.Node {
	if m, ok := memo[n]; ok {
		return m
	}
	var m *skeleton.Node
	if n.IsText {
		m = b.Text()
	} else {
		edges := make([]skeleton.Edge, 0, len(n.Edges))
		for _, e := range n.Edges {
			edges = append(edges, skeleton.Edge{
				Child: importTranslated(b, dstSyms, srcSyms, e.Child, memo),
				Count: e.Count,
			})
		}
		m = b.Make(dstSyms.Intern(srcSyms.Name(n.Tag)), edges)
	}
	memo[n] = m
	return m
}
