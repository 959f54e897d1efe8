package shard

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"

	"vxml/internal/storage"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
)

// BuildConfig configures a federation build.
type BuildConfig struct {
	// Shards is the shard count; at least 1.
	Shards int
	// Policy assigns documents to shards; empty means PolicyHash.
	Policy Policy
	// Opts configures each shard repository build (pool pages, compression,
	// filesystem).
	Opts vectorize.Options
}

// Build splits docs (whole XML documents sharing one root tag) across
// cfg.Shards shard repositories under dir and writes the SHARDS catalog.
// The build follows the repository commit protocol: everything lands in
// dir+".building" — each shard repository committed by its own build —
// and the finished federation is renamed into place as the last step, so
// a crash leaves either no federation or a complete one. dir must not
// already hold a federation.
//
// A shard the policy assigns no documents still gets a repository with a
// bare <roottag/> document, so every shard answers every query (with an
// empty contribution) rather than erroring on open.
//
// Failures abort the build and surface raw; retry and quarantine apply
// only at query time.
func Build(docs []string, dir string, cfg BuildConfig) (*Catalog, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: build: %d shards (want >= 1)", cfg.Shards)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("shard: build: no documents")
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyHash
	}

	// Validate every document up front: well-formed, one shared root tag.
	// RootChildren per document is what rebalance later cuts shards on.
	syms := xmlmodel.NewSymbols()
	rootTag := ""
	kids := make([]int, len(docs))
	for i, doc := range docs {
		root, err := xmlmodel.ParseString(doc, syms)
		if err != nil {
			return nil, fmt.Errorf("shard: build: document %d: %w", i, err)
		}
		tag := syms.Name(root.Tag)
		if rootTag == "" {
			rootTag = tag
		} else if tag != rootTag {
			return nil, fmt.Errorf("shard: build: document %d root <%s> differs from <%s>; a federation shares one root tag", i, tag, rootTag)
		}
		kids[i] = len(root.Kids)
	}
	byShard, err := assign(docs, cfg.Shards, cfg.Policy)
	if err != nil {
		return nil, err
	}

	fsys := storage.DefaultFS
	if cfg.Opts.FS != nil {
		fsys = cfg.Opts.FS
	}
	building := dir + ".building"
	if err := fsys.RemoveAll(building); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(building, 0o755); err != nil {
		return nil, err
	}

	cat := &Catalog{Format: catalogFormat, RootTag: rootTag, Policy: cfg.Policy}
	for k, ids := range byShard {
		si := ShardInfo{Dir: fmt.Sprintf("shard-%04d", k)}
		shardDir := filepath.Join(building, si.Dir)
		first := fmt.Sprintf("<%s/>", rootTag)
		rest := ids
		if len(ids) > 0 {
			first = docs[ids[0]]
			rest = ids[1:]
		}
		repo, err := vectorize.Create(strings.NewReader(first), shardDir, cfg.Opts)
		if err != nil {
			return nil, fmt.Errorf("shard: build shard %d: %w", k, err)
		}
		for _, id := range rest {
			if err := repo.Append(bytes.NewReader([]byte(docs[id]))); err != nil {
				repo.Close()
				return nil, fmt.Errorf("shard: build shard %d: append document %d: %w", k, id, err)
			}
		}
		if err := repo.Close(); err != nil {
			return nil, fmt.Errorf("shard: build shard %d: %w", k, err)
		}
		for _, id := range ids {
			si.Docs = append(si.Docs, DocInfo{ID: id, RootChildren: kids[id]})
		}
		cat.Shards = append(cat.Shards, si)
	}
	if err := WriteCatalog(fsys, building, cat); err != nil {
		return nil, err
	}
	if err := vectorize.PromoteBuild(fsys, building, dir); err != nil {
		return nil, err
	}
	return cat, nil
}

// ExtractDocs reconstructs the federation's original documents, in
// global load order, by serializing each shard and cutting its root back
// into documents along the catalog's RootChildren boundaries. It is the
// inverse of Build and the first half of a rebalance.
//
// Extraction failures abort the rebalance and surface raw to the
// operator.
func ExtractDocs(f *Federation) ([]string, error) {
	docs := make([]string, f.Catalog.NumDocs())
	for k, repo := range f.Shards {
		var b strings.Builder
		if err := repo.WriteXML(&b); err != nil {
			return nil, fmt.Errorf("shard: extract shard %d: %w", k, err)
		}
		syms := xmlmodel.NewSymbols()
		root, err := xmlmodel.ParseString(b.String(), syms)
		if err != nil {
			return nil, fmt.Errorf("shard: extract shard %d: %w", k, err)
		}
		off := 0
		for _, di := range f.Catalog.Shards[k].Docs {
			if off+di.RootChildren > len(root.Kids) {
				return nil, fmt.Errorf("shard: extract shard %d: catalog claims %d more root children at offset %d, shard has %d: %w",
					k, di.RootChildren, off, len(root.Kids), storage.ErrCorrupt)
			}
			doc := xmlmodel.NewElem(root.Tag)
			for _, kid := range root.Kids[off : off+di.RootChildren] {
				doc.Append(kid)
			}
			docs[di.ID] = xmlmodel.TreeString(doc, syms)
			off += di.RootChildren
		}
		if off != len(root.Kids) {
			return nil, fmt.Errorf("shard: extract shard %d: %d root children not covered by the catalog: %w",
				k, len(root.Kids)-off, storage.ErrCorrupt)
		}
	}
	return docs, nil
}

// Rebalance re-splits an opened federation into a new federation at dir
// with a (possibly different) shard count and policy: documents are
// extracted in global order and re-loaded through Build. The source
// federation is untouched.
//
// Failures abort the rebalance and surface raw; the source federation
// keeps serving.
func Rebalance(f *Federation, dir string, cfg BuildConfig) (*Catalog, error) {
	docs, err := ExtractDocs(f)
	if err != nil {
		return nil, err
	}
	return Build(docs, dir, cfg)
}
