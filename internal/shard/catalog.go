// Package shard federates several vectorized repositories behind the
// single-repository query surface. A federation directory holds N shard
// repositories plus a SHARDS catalog mapping every loaded document to
// its shard. NewService serves a federation as one core.Service whose
// cache misses either scatter the query to every shard and merge the
// per-shard (S', V') results (when the query is provably
// document-decomposable, see Shardable) or evaluate it over a merged
// union view of all shards. Both paths return exactly what a single
// repository built from the union of the documents would return.
package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"vxml/internal/storage"
	"vxml/internal/vectorize"
)

// CatalogName is the catalog's file name within a federation directory.
const CatalogName = "SHARDS"

// catalogFormat is the federation catalog format version.
const catalogFormat = 1

// Policy names a document-to-shard assignment strategy.
type Policy string

const (
	// PolicyHash assigns each document by a content hash — deterministic,
	// load-oblivious, and naturally uneven for small document counts.
	PolicyHash Policy = "hash"
	// PolicyRange assigns contiguous blocks of the load order to each
	// shard, preserving document locality.
	PolicyRange Policy = "range"
)

// DocInfo records one loaded document's place in the federation.
type DocInfo struct {
	// ID is the document's global position in load order. Federation
	// document order — the order the union view and merged results
	// present documents in — is shard-major: all of shard 0's documents
	// (ascending ID), then shard 1's, and so on.
	ID int `json:"id"`
	// RootChildren is how many children the document root contributed to
	// its shard's root. Shard repositories splice document roots together
	// (vectorize.Append), so this is what lets rebalance cut the shard
	// back into its original documents.
	RootChildren int `json:"root_children"`
}

// ShardInfo describes one shard of a federation.
type ShardInfo struct {
	// Dir is the shard repository's directory name under the federation
	// directory.
	Dir string `json:"dir"`
	// Docs lists the shard's documents in ascending global ID — the order
	// they were appended to the shard repository.
	Docs []DocInfo `json:"docs"`
}

// Catalog is the federation's self-description, persisted as SHARDS with
// a checksum footer and rewritten atomically like every other repository
// metadata file.
type Catalog struct {
	Format  int         `json:"format"`
	RootTag string      `json:"root_tag"`
	Policy  Policy      `json:"policy"`
	Shards  []ShardInfo `json:"shards"`
}

// NumDocs returns the total document count across all shards.
func (c *Catalog) NumDocs() int {
	n := 0
	for _, s := range c.Shards {
		n += len(s.Docs)
	}
	return n
}

// WriteCatalog atomically writes the catalog into dir.
//
// A failed write fails the build; the query-time fault taxonomy (retry,
// quarantine) does not apply.
func WriteCatalog(fsys storage.FS, dir string, c *Catalog) error {
	data, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return err
	}
	if err := storage.WriteFileAtomic(fsys, filepath.Join(dir, CatalogName), data); err != nil {
		return fmt.Errorf("shard: write catalog: %w", err)
	}
	return nil
}

// ReadCatalog reads and validates dir's catalog.
//
// A corrupt catalog fails the open with an error wrapping
// storage.ErrCorrupt; there is nothing to retry.
func ReadCatalog(fsys storage.FS, dir string) (*Catalog, error) {
	body, err := storage.ReadFileChecksummed(fsys, filepath.Join(dir, CatalogName))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("shard: %s has no %s: not a federation directory", dir, CatalogName)
	}
	if err != nil {
		return nil, err
	}
	var c Catalog
	if err := json.Unmarshal(body, &c); err != nil {
		return nil, fmt.Errorf("shard: parse %s: %v: %w", CatalogName, err, storage.ErrCorrupt)
	}
	if c.Format != catalogFormat {
		return nil, fmt.Errorf("shard: %s: unsupported federation format %d (this build reads format %d)", dir, c.Format, catalogFormat)
	}
	if len(c.Shards) == 0 {
		return nil, fmt.Errorf("shard: %s: catalog lists no shards: %w", dir, storage.ErrCorrupt)
	}
	return &c, nil
}

// assign maps every document to a shard under the policy. Documents are
// identified by their load-order index; hash assignment reads the
// document bytes.
func assign(docs []string, shards int, policy Policy) ([][]int, error) {
	out := make([][]int, shards)
	switch policy {
	case PolicyHash:
		for i, doc := range docs {
			h := fnv.New32a()
			h.Write([]byte(doc))
			k := int(h.Sum32() % uint32(shards))
			out[k] = append(out[k], i)
		}
	case PolicyRange:
		// Contiguous blocks of ceil(len/shards); trailing shards may be
		// empty when documents are scarce.
		per := (len(docs) + shards - 1) / shards
		if per == 0 {
			per = 1
		}
		for i := range docs {
			k := i / per
			if k >= shards {
				k = shards - 1
			}
			out[k] = append(out[k], i)
		}
	default:
		return nil, fmt.Errorf("shard: unknown policy %q (want %q or %q)", policy, PolicyHash, PolicyRange)
	}
	return out, nil
}

// Federation is an opened set of shard repositories plus their catalog.
// Fields are exported so tests can assemble federations with per-shard
// filesystems (fault injection on a subset of shards).
type Federation struct {
	Dir     string
	Catalog *Catalog
	// Shards is index-aligned with Catalog.Shards.
	Shards []*vectorize.Repository
}

// OpenFederation opens every shard of the federation at dir. opts (pool
// size, FS) applies to each shard repository.
//
// A shard that fails to open fails the whole open, before any query
// could be degraded.
func OpenFederation(dir string, opts vectorize.Options) (*Federation, error) {
	fsys := storage.DefaultFS
	if opts.FS != nil {
		fsys = opts.FS
	}
	cat, err := ReadCatalog(fsys, dir)
	if err != nil {
		return nil, err
	}
	f := &Federation{Dir: dir, Catalog: cat}
	for _, si := range cat.Shards {
		repo, err := vectorize.Open(filepath.Join(dir, si.Dir), opts)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("shard: open %s: %w", si.Dir, err)
		}
		f.Shards = append(f.Shards, repo)
	}
	return f, nil
}

// Close closes every shard repository, returning the first error.
//
// Close errors are reported, not retried.
func (f *Federation) Close() error {
	var first error
	for _, repo := range f.Shards {
		if err := repo.Close(); err != nil && first == nil {
			first = err
		}
	}
	f.Shards = nil
	return first
}

// Epoch is the federation's append epoch: the sum of the shard epochs,
// so any committed Append on any shard changes it. Result caches over
// the federation key on it exactly like single-repository caches key on
// Repository.Epoch.
func (f *Federation) Epoch() uint64 {
	var e uint64
	for _, repo := range f.Shards {
		e += repo.Epoch()
	}
	return e
}

// ShardStatus is one shard's row in the operator-facing status listing
// (vxstore shard list, GET /debug/shards).
type ShardStatus struct {
	Shard       int                       `json:"shard"`
	Dir         string                    `json:"dir"`
	Docs        int                       `json:"docs"`
	Epoch       uint64                    `json:"epoch"`
	Classes     int                       `json:"classes"`
	Vectors     int                       `json:"vectors"`
	Quarantined []storage.QuarantineEntry `json:"quarantined,omitempty"`
}

// Status reports every shard's live state.
func (f *Federation) Status() []ShardStatus {
	out := make([]ShardStatus, len(f.Shards))
	for k, repo := range f.Shards {
		out[k] = ShardStatus{
			Shard:       k,
			Dir:         f.Catalog.Shards[k].Dir,
			Docs:        len(f.Catalog.Shards[k].Docs),
			Epoch:       repo.Epoch(),
			Classes:     repo.Classes.NumClasses(),
			Vectors:     len(repo.Vectors.Names()),
			Quarantined: repo.Health.List(),
		}
	}
	return out
}
