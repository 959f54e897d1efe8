package vector

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"vxml/internal/obs"
	"vxml/internal/storage"
)

// DiskSet is a Set backed by a storage.Store: one paged file per vector
// plus a catalog mapping vector names (which contain '/') to file names.
// Vectors are opened lazily — a query pays I/O only for the vectors it
// scans, which is the paper's central claim.
//
// Concurrency: the read side (Vector, Count, Names, CatalogBytes) is safe
// for concurrent use once the set is loaded — many queries can share one
// DiskSet. The write side (NewWriter, AppendWriter, CloseVector, Save,
// SetCompression) mutates the catalog and is single-owner: run it from one
// goroutine, with no concurrent readers, as during vectorization.
type DiskSet struct {
	store    *storage.Store
	catalog  map[string]catalogEntry
	mu       sync.Mutex // guards open
	open     map[string]Vector
	compress bool
}

type catalogEntry struct {
	File       string `json:"file"`
	Count      int64  `json:"count"`
	Bytes      int64  `json:"bytes"`
	Compressed bool   `json:"compressed,omitempty"`
}

// SetCompression makes subsequently created vectors DEFLATE-compressed
// per page (the §6 extension); existing vectors keep their format, which
// the catalog records per vector.
func (s *DiskSet) SetCompression(on bool) { s.compress = on }

// SetWriter appends values to one vector of a DiskSet; both the plain and
// the compressed writers satisfy it.
type SetWriter interface {
	Append(val []byte) error
	AppendString(val string) error
	Count() int64
	ValueBytes() int64
	Close() error
}

// CatalogName is the catalog's file name within a store directory.
const CatalogName = "vectors.json"

const catalogName = CatalogName

// CreateDiskSet starts an empty disk set in store. Call Save after all
// writers are closed.
func CreateDiskSet(store *storage.Store) *DiskSet {
	return &DiskSet{
		store:   store,
		catalog: make(map[string]catalogEntry),
		open:    make(map[string]Vector),
	}
}

// OpenDiskSet opens an existing disk set from store's directory, verifying
// the catalog's checksum footer.
func OpenDiskSet(store *storage.Store) (*DiskSet, error) {
	data, err := storage.ReadFileChecksummed(store.FS(), filepath.Join(store.Dir(), catalogName))
	if err != nil {
		return nil, fmt.Errorf("vector: open disk set: %w", err)
	}
	s := CreateDiskSet(store)
	if err := json.Unmarshal(data, &s.catalog); err != nil {
		return nil, fmt.Errorf("vector: parse catalog: %v: %w", err, storage.ErrCorrupt)
	}
	return s, nil
}

// NewWriter creates the named vector and returns a writer for it. The name
// must be new. The caller must Close the writer (via CloseVector), then
// call Save once all vectors are written.
func (s *DiskSet) NewWriter(name string) (SetWriter, error) {
	if _, ok := s.catalog[name]; ok {
		return nil, fmt.Errorf("vector: vector %q already exists", name)
	}
	fileName := fmt.Sprintf("v%06d.vec", len(s.catalog))
	f, err := s.store.Open(fileName)
	if err != nil {
		return nil, err
	}
	s.catalog[name] = catalogEntry{File: fileName, Compressed: s.compress}
	if s.compress {
		return NewCompressedWriter(s.store.Pool(), f)
	}
	return NewWriter(s.store.Pool(), f)
}

// CloseVector finalizes a vector written via NewWriter and records its
// stats in the catalog.
func (s *DiskSet) CloseVector(name string, w SetWriter) error {
	count, bytes := w.Count(), w.ValueBytes()
	if err := w.Close(); err != nil {
		return err
	}
	e := s.catalog[name]
	e.Count, e.Bytes = count, bytes
	s.catalog[name] = e
	return nil
}

// Save writes the catalog atomically with a checksum footer. The pool is
// flushed first, so the catalog never describes pages still in memory.
// Call it after all writers are closed.
func (s *DiskSet) Save() error {
	return s.SaveSync(nil)
}

// SaveSync is Save with a durability barrier: after the pool flush it
// fsyncs the named vectors' files before the catalog goes down, so a crash
// right after SaveSync leaves catalog and vector data consistent. Append
// paths must list every vector they touched; nil skips the barrier (bulk
// builds that commit durably at a higher level).
func (s *DiskSet) SaveSync(touched []string) error {
	if err := s.store.Pool().Flush(); err != nil {
		return err
	}
	for _, name := range touched {
		e, ok := s.catalog[name]
		if !ok {
			return fmt.Errorf("vector: sync unknown vector %q", name)
		}
		f, err := s.store.Open(e.File)
		if err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(s.catalog, "", " ")
	if err != nil {
		return err
	}
	if err := storage.WriteFileAtomic(s.store.FS(), filepath.Join(s.store.Dir(), catalogName), data); err != nil {
		return fmt.Errorf("vector: save catalog: %w", err)
	}
	return nil
}

// Names implements Set.
func (s *DiskSet) Names() []string {
	out := make([]string, 0, len(s.catalog))
	for n := range s.catalog {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Vector implements Set, opening the paged file on first use. Concurrent
// callers of the same name serialize on the set's lock and share one
// reader (Paged is scan-state-free, so sharing is safe).
func (s *DiskSet) Vector(name string) (Vector, error) {
	return s.VectorCtx(context.Background(), nil, name)
}

// VectorCtx implements CtxSet: a cold open's meta-page read is charged to
// m and retries trace on ctx's span, so the first query to touch a vector
// owns the I/O its open cost. A warm open (cached reader) does no I/O and
// ignores both.
func (s *DiskSet) VectorCtx(ctx context.Context, m *obs.TaskMeter, name string) (Vector, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.open[name]; ok {
		return v, nil
	}
	e, ok := s.catalog[name]
	if !ok {
		return nil, fmt.Errorf("vector: no vector %q", name)
	}
	f, err := s.store.Open(e.File)
	if err != nil {
		return nil, err
	}
	p, err := OpenPagedCtx(ctx, s.store.Pool(), f, m)
	if err != nil {
		return nil, err
	}
	if err := p.expect(f, e.Compressed); err != nil {
		return nil, err
	}
	var v Vector = p
	// The catalog is committed after vector data on every durable path, so
	// its count is authoritative. A longer vector is the orphaned tail of an
	// append that crashed before its catalog commit: clamp to the catalog
	// count and the repository reads exactly as it did before that append.
	// A shorter vector means lost committed data — corruption.
	if n := v.Len(); n > e.Count {
		v = &clamped{Vector: v, n: e.Count}
	} else if n < e.Count {
		return nil, fmt.Errorf("vector: %s (vector %q): catalog records %d values but file holds %d: %w",
			f.Path(), name, e.Count, n, storage.ErrCorrupt)
	}
	s.open[name] = v
	return v, nil
}

// clamped exposes only the first n values of a vector — the catalog's view
// of a file that carries an uncommitted append tail. A Cursor over it
// reads the Paged underneath directly, within the clamp.
type clamped struct {
	Vector
	n int64
}

func (c *clamped) Len() int64 { return c.n }

// Metered implements Meterable by forwarding to the wrapped vector's
// Metered (Paged implements it), keeping the clamp.
func (c *clamped) Metered(m *obs.TaskMeter) Vector {
	if mv, ok := c.Vector.(Meterable); ok {
		return &clamped{Vector: mv.Metered(m), n: c.n}
	}
	return c
}

// WithContext implements Contextual by forwarding to the wrapped vector,
// keeping the clamp.
func (c *clamped) WithContext(ctx context.Context) Vector {
	if cv, ok := c.Vector.(Contextual); ok {
		return &clamped{Vector: cv.WithContext(ctx), n: c.n}
	}
	return c
}

func (c *clamped) Scan(start, n int64, fn func(pos int64, val []byte) error) error {
	if start < 0 || start+n > c.n {
		return fmt.Errorf("vector: scan [%d,%d) out of range 0..%d", start, start+n, c.n)
	}
	return c.Vector.Scan(start, n, fn)
}

// Reverify re-reads the named vector from disk end to end — every page
// through its CRC trailer, every record through its structural bounds —
// and reports the first failure. It is the quarantine-clear path's proof
// of health: the cached reader is discarded and the vector's buffered
// pages dropped first, so the verification reads the *disk*, not frames
// cached from before the failure. On success later Vector calls reopen
// a fresh reader.
func (s *DiskSet) Reverify(name string) error {
	s.mu.Lock()
	delete(s.open, name)
	e, ok := s.catalog[name]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("vector: no vector %q", name)
	}
	f, err := s.store.Open(e.File)
	if err != nil {
		return err
	}
	// A frame pinned by an in-flight scan cannot be dropped; the caller
	// retries once that query drains. (Quarantined vectors fail fast in
	// the engine, so pins on them are short-lived stragglers.)
	if err := s.store.Pool().DropFile(f); err != nil {
		return fmt.Errorf("vector: reverify %q: %w", name, err)
	}
	v, err := s.Vector(name)
	if err != nil {
		return err
	}
	return v.Scan(0, v.Len(), func(int64, []byte) error { return nil })
}

// Files returns the on-disk file name and current page count of every
// cataloged vector (for manifests and integrity checks).
func (s *DiskSet) Files() (map[string]int64, error) {
	out := make(map[string]int64, len(s.catalog))
	for _, e := range s.catalog {
		f, err := s.store.Open(e.File)
		if err != nil {
			return nil, err
		}
		out[e.File] = f.NumPages()
	}
	return out, nil
}

// FileOf returns the on-disk file name holding the named vector.
func (s *DiskSet) FileOf(name string) (string, bool) {
	e, ok := s.catalog[name]
	return e.File, ok
}

// Count returns the catalog's record count for a vector without opening it.
func (s *DiskSet) Count(name string) (int64, bool) {
	e, ok := s.catalog[name]
	return e.Count, ok
}

// CatalogBytes returns the summed raw value bytes across all vectors, from
// the catalog alone (no I/O).
func (s *DiskSet) CatalogBytes() int64 {
	var total int64
	for _, e := range s.catalog {
		total += e.Bytes
	}
	return total
}

// AppendWriter returns a writer positioned at the end of the named vector,
// creating the vector if it does not exist yet (a newly appearing path).
// Finalize with CloseVector, then Save.
func (s *DiskSet) AppendWriter(name string) (SetWriter, error) {
	e, ok := s.catalog[name]
	if !ok {
		return s.NewWriter(name)
	}
	s.mu.Lock()
	delete(s.open, name) // invalidate any cached reader
	s.mu.Unlock()
	f, err := s.store.Open(e.File)
	if err != nil {
		return nil, err
	}
	if e.Compressed {
		return OpenAppendCompressed(s.store.Pool(), f, e.Count)
	}
	return OpenAppendWriter(s.store.Pool(), f, e.Count)
}

// Rollback cuts the catalog's count for a vector back to n — the
// recovery step for an append that committed its catalog but crashed
// before the skeleton commit: the skeleton on disk (the authority, being
// the last file committed) still describes the pre-append document, so
// the extra cataloged values are orphans. The change is in-memory; the
// next committed append rewrites the durable catalog. The recorded byte
// total keeps its pre-rollback value until then (it feeds statistics,
// not correctness, and the next append recomputes it exactly).
func (s *DiskSet) Rollback(name string, n int64) error {
	e, ok := s.catalog[name]
	if !ok {
		return fmt.Errorf("vector: no vector %q", name)
	}
	if n > e.Count {
		return fmt.Errorf("vector: rollback of %q to %d values, catalog has only %d", name, n, e.Count)
	}
	if n == e.Count {
		return nil
	}
	e.Count = n
	s.catalog[name] = e
	s.mu.Lock()
	delete(s.open, name) // drop any reader clamped to the old count
	s.mu.Unlock()
	return nil
}
