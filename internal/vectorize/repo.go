package vectorize

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"vxml/internal/skeleton"
	"vxml/internal/storage"
	"vxml/internal/vector"
	"vxml/internal/xmlmodel"
)

// Repository is an opened vectorized XML store: the skeleton (in memory —
// the paper's central assumption is that compressed skeletons fit in main
// memory), the class registry, and the lazily-loaded data vectors.
//
// Concurrency: an opened Repository is safe to share across goroutines
// for querying — the skeleton is immutable, the class registry locks its
// lazy memos, the vector set locks its lazy opens, and the buffer pool
// underneath is concurrency-safe. Serve each query through its own engine
// (core.NewRepoEngine) or share one engine; both are safe — a per-query
// engine additionally isolates index builds and statistics. Mutating
// operations (Create, Append, Close) are single-owner: run them from one
// goroutine with no queries in flight.
type Repository struct {
	Dir     string
	Store   *storage.Store
	Syms    *xmlmodel.Symbols
	Skel    *skeleton.Skeleton
	Classes *skeleton.Classes
	Vectors vector.Set

	// Health is the repository's quarantine table: vectors whose reads
	// surfaced persistent corruption, fenced off until re-verified. Set by
	// Open; engines over this repository (core.NewRepoEngine) consult and
	// feed it.
	Health *storage.Health

	// epoch counts committed mutations since Open: Append bumps it after
	// its last durable commit step. A query result is valid exactly for
	// the epoch it was evaluated under, which is what lets result caches
	// key on (query, epoch) and never serve a pre-append answer
	// post-append.
	epoch atomic.Uint64
}

// Epoch returns the repository's append epoch: 0 at Open, incremented by
// every committed Append. Safe to read concurrently with queries.
func (r *Repository) Epoch() uint64 { return r.epoch.Load() }

// Options configures repository creation and opening.
type Options struct {
	// PoolPages is the buffer pool capacity in 8 KiB pages (default 4096,
	// i.e. 32 MiB — the paper used a 1 GB pool for gigabyte datasets).
	PoolPages int
	// Compress stores data vectors DEFLATE-compressed per extent (the §6
	// extension: less I/O for more CPU). Applies to Create only; Open
	// detects it from the vector directory, and appends keep it.
	Compress bool
	// FS is the filesystem the repository lives on; nil means the real OS
	// filesystem. Tests inject fault-injecting or crash-simulating
	// filesystems here.
	FS storage.FS
}

func (o Options) poolPages() int {
	if o.PoolPages <= 0 {
		return 4096
	}
	return o.PoolPages
}

func (o Options) fs() storage.FS {
	if o.FS == nil {
		return storage.DefaultFS
	}
	return o.FS
}

// Create vectorizes the XML document read from r into a new repository at
// dir. The directory must not already contain a repository.
//
// The build is crash-safe: everything is written into dir+".building" and
// the finished, fully-fsynced repository is renamed into place as the last
// step. A crash mid-build leaves either no repository (plus a stale
// .building directory that the next Create removes) or the complete one —
// never a half-built directory that Open would have to second-guess.
func Create(r io.Reader, dir string, opts Options) (*Repository, error) {
	fsys := opts.fs()
	for _, name := range []string{ManifestName, skeletonFile} {
		if _, err := fsys.Stat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("vectorize: repository already exists at %s", dir)
		}
	}
	building := dir + ".building"
	if err := fsys.RemoveAll(building); err != nil {
		return nil, fmt.Errorf("vectorize: clear stale build dir: %w", err)
	}
	store, err := storage.OpenStoreFS(fsys, building, opts.poolPages())
	if err != nil {
		return nil, err
	}
	syms := xmlmodel.NewSymbols()
	sink, err := NewStoreSink(store, opts.Compress)
	if err != nil {
		store.Close()
		return nil, err
	}
	skel, err := VectorizeStream(r, syms, sink)
	if err != nil {
		store.Close()
		return nil, err
	}
	if err := sink.Close(); err != nil {
		store.Close()
		return nil, err
	}
	if err := CommitStore(store, skel, syms, sink.Set); err != nil {
		store.Close()
		return nil, err
	}
	if err := store.Close(); err != nil {
		return nil, err
	}
	if err := PromoteBuild(fsys, building, dir); err != nil {
		return nil, err
	}
	return Open(dir, opts)
}

// CommitStore makes a store directory whose vector set is committed (its
// sink closed) a complete repository: the skeleton goes down checksummed
// and atomic, and the manifest is written last.
func CommitStore(store *storage.Store, skel *skeleton.Skeleton, syms *xmlmodel.Symbols, set *vector.DiskSet) error {
	return commitSkeleton(store.FS(), store.Dir(), skel, syms, set)
}

// PromoteBuild moves a finished, fully-committed build directory into
// place at dir and fsyncs the parent — the single atomic commit point of a
// bulk build. dir may pre-exist as an empty directory (a caller's mkdir);
// anything non-empty is refused rather than clobbered. CommitStore has
// already fsynced every file in the build directory.
func PromoteBuild(fsys storage.FS, building, dir string) error {
	if entries, err := fsys.ReadDir(dir); err == nil {
		if len(entries) > 0 {
			return fmt.Errorf("vectorize: %s exists and is not empty", dir)
		}
		if err := fsys.Remove(dir); err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if err := fsys.Rename(building, dir); err != nil {
		return fmt.Errorf("vectorize: commit repository: %w", err)
	}
	return fsys.SyncDir(filepath.Dir(dir))
}

// commitSkeleton writes the skeleton, then the manifest: the last two
// steps of every commit, after the vector set's own.
func commitSkeleton(fsys storage.FS, dir string, skel *skeleton.Skeleton, syms *xmlmodel.Symbols, set *vector.DiskSet) error {
	var buf bytes.Buffer
	if err := skeleton.Encode(&buf, skel, syms); err != nil {
		return err
	}
	if err := storage.WriteFileAtomic(fsys, filepath.Join(dir, skeletonFile), buf.Bytes()); err != nil {
		return err
	}
	return writeManifest(fsys, dir, set.Pages())
}

// Open opens an existing repository: the manifest is validated, the
// skeleton loads into memory (checksum-verified), and the vectors stay on
// disk until a query touches them.
//
// A repository that a crash left one commit step short — files newer than
// the manifest records, each carrying a valid checksum of its own — is
// adopted and its manifest repaired in place. Files that fail their own
// checksums make Open fail with an error wrapping storage.ErrCorrupt that
// names the file.
func Open(dir string, opts Options) (*Repository, error) {
	fsys := opts.fs()
	m, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	bodies, stale, err := verifyManifest(fsys, dir, m)
	if err != nil {
		return nil, err
	}
	syms := xmlmodel.NewSymbols()
	skel, err := skeleton.Decode(bytes.NewReader(bodies[skeletonFile]), syms)
	if err != nil {
		return nil, fmt.Errorf("vectorize: decode %s: %v: %w", skeletonFile, err, storage.ErrCorrupt)
	}
	store, err := storage.OpenStoreFS(fsys, dir, opts.poolPages())
	if err != nil {
		return nil, err
	}
	classes := skeleton.NewClasses(skel, syms)
	set, err := vector.OpenDiskSet(store, vectorStem, bodies[directoryFile])
	if err == nil {
		err = reconcile(classes, syms, set)
	}
	if err == nil && stale {
		// The skeleton or directory on disk is a newer committed version
		// than the manifest records — an append was interrupted after its
		// last file commit. The files are authoritative; bring the manifest
		// back in step.
		if err = writeManifest(fsys, dir, set.Pages()); err != nil {
			err = fmt.Errorf("vectorize: repair manifest: %w", err)
		}
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	return &Repository{
		Dir:     dir,
		Store:   store,
		Syms:    syms,
		Skel:    skel,
		Classes: classes,
		Vectors: set,
		Health:  storage.NewHealth(),
	}, nil
}

// reconcile rolls the vector directory back to the skeleton. The skeleton
// is the last file an append commits, so it is the authority: a count
// above the skeleton's occurrence count is the half-committed tail of an
// append that crashed between its directory and skeleton commits — cut it
// off and the repository reads exactly as before that append — and a
// vector no text class reaches is such an append's new path, cut to
// nothing. A count below the skeleton's is lost committed data.
//
// A walk of the class trie spells the vector names out in one buffer, so
// no class path is built unless an error or a rollback needs it.
func reconcile(classes *skeleton.Classes, syms *xmlmodel.Symbols, set *vector.DiskSet) error {
	got := make([]int64, classes.NumClasses()) // text class -> its vector's count, -1 for none
	reached := 0
	var path []byte
	var walk func(id skeleton.ClassID)
	walk = func(id skeleton.ClassID) {
		n := len(path)
		path = append(append(path, '/'), syms.Name(classes.Tag(id))...)
		for _, kid := range classes.Kids(id) {
			if !classes.IsText(kid) {
				walk(kid)
			} else if count, ok := set.CountBytes(path); ok {
				got[kid], reached = count, reached+1
			} else {
				got[kid] = -1
			}
		}
		path = path[:n]
	}
	walk(classes.Root())
	for id, n := range got {
		id, want := skeleton.ClassID(id), classes.Count(skeleton.ClassID(id))
		switch {
		case !classes.IsText(id):
		case n < 0:
			return fmt.Errorf("vectorize: open repository: skeleton text class %s (%d occurrences) has no vector in the directory: %w",
				classes.VectorName(id), want, storage.ErrCorrupt)
		case n < want:
			return fmt.Errorf("vectorize: open repository: vector %q: skeleton references %d values but the directory committed only %d: %w",
				classes.VectorName(id), want, n, storage.ErrCorrupt)
		case n > want:
			if err := set.Rollback(classes.VectorName(id), want); err != nil {
				return err
			}
		}
	}
	if set.Len() == reached {
		return nil
	}
	texts := classes.TextClasses()
	isText := make(map[string]bool, len(texts))
	for _, id := range texts {
		isText[classes.VectorName(id)] = true
	}
	for _, name := range set.Names() {
		if !isText[name] {
			if err := set.Rollback(name, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close flushes and closes the underlying store.
func (r *Repository) Close() error { return r.Store.Close() }

// VerifyVector re-reads one vector from disk end to end (dropping any
// buffered pages first) and, when it verifies clean, clears its
// quarantine. The returned error is the verification failure, if any —
// the vector then stays quarantined with the refreshed reason.
func (r *Repository) VerifyVector(name string) error {
	set, ok := r.Vectors.(*vector.DiskSet)
	if !ok {
		return fmt.Errorf("vectorize: repository vectors are not disk-backed")
	}
	if err := set.Reverify(name); err != nil {
		if _, ok := r.Health.Quarantined(name); ok {
			// Refresh the reason: the re-verify failure is the current truth.
			r.Health.Clear(name)
			r.Health.Quarantine(name, err.Error())
		}
		return err
	}
	r.Health.Clear(name)
	return nil
}

// ReverifyQuarantined re-verifies every quarantined vector, clearing the
// ones that now read clean (the corruption was upstream of the disk, or
// an operator repaired the file) and keeping the rest. It returns the
// cleared and kept vector names — the quarantine-clear endpoint's
// response body.
func (r *Repository) ReverifyQuarantined() (cleared, kept []string) {
	for _, e := range r.Health.List() {
		if err := r.VerifyVector(e.Vector); err != nil {
			kept = append(kept, e.Vector)
		} else {
			cleared = append(cleared, e.Vector)
		}
	}
	return cleared, kept
}

// WriteXML reconstructs the stored document as XML text.
func (r *Repository) WriteXML(w io.Writer) error {
	return ReconstructXML(r.Skel, r.Classes, r.Vectors, r.Syms, w)
}

// MemRepository bundles an in-memory vectorized document for tests, small
// workloads and query results.
type MemRepository struct {
	Syms    *xmlmodel.Symbols
	Skel    *skeleton.Skeleton
	Classes *skeleton.Classes
	Vectors vector.Set
}

// FromTree vectorizes an in-memory tree into a MemRepository.
func FromTree(root *xmlmodel.Node, syms *xmlmodel.Symbols) (*MemRepository, error) {
	skel, set, err := VectorizeTree(root, syms)
	if err != nil {
		return nil, err
	}
	return &MemRepository{
		Syms:    syms,
		Skel:    skel,
		Classes: skeleton.NewClasses(skel, syms),
		Vectors: set,
	}, nil
}

// FromString vectorizes an XML string into a MemRepository.
func FromString(doc string, syms *xmlmodel.Symbols) (*MemRepository, error) {
	root, err := xmlmodel.ParseString(doc, syms)
	if err != nil {
		return nil, err
	}
	return FromTree(root, syms)
}

// Append adds the children of a document fragment to the end of the
// stored document — the incremental-maintenance direction of §6 ("XML
// documents are typically static, and if not, there may be promising
// techniques for updating vectorized XML data"). The fragment's root tag
// must equal the repository's root tag; its children become the last
// children of the stored root. Data vectors are extended in place (their
// positions stay aligned with the grown classes), and the skeleton file
// is rewritten, which is cheap because skeletons are small.
//
// The commit order makes a crash at any point recoverable: segment pages
// are flushed and the segment fsynced first, then the vector directory,
// then the skeleton (each checksummed and renamed into place atomically),
// then the manifest. Appends only ever write past the committed bytes of
// a vector's own tail page, or to new pages, so every prefix of the
// sequence leaves a repository that opens and queries consistently —
// either fully pre-append, fully post-append, or post-append with a
// manifest one step behind, which Open repairs.
func (r *Repository) Append(fragReader io.Reader) error {
	set, ok := r.Vectors.(*vector.DiskSet)
	if !ok {
		return fmt.Errorf("vectorize: Append requires a disk-backed repository")
	}
	sink := NewDiskSink(set)
	frag, err := VectorizeStream(fragReader, r.Syms, sink)
	if err != nil {
		return err
	}
	tag := r.Skel.Tag(r.Skel.Root)
	if frag.Tag(frag.Root) != tag {
		return fmt.Errorf("vectorize: fragment root %q does not match document root %q",
			r.Syms.Name(frag.Tag(frag.Root)), r.Syms.Name(tag))
	}
	if err := sink.Close(); err != nil {
		return err
	}

	// The stored root's children, then the fragment root's, imported into
	// a fresh builder: identical subtrees of the two hash-cons into one
	// node, and the new skeleton holds exactly the reachable nodes.
	b := skeleton.NewBuilder()
	edges := skeleton.NewImporter(b, r.Skel, nil, nil).AppendRootEdges(nil)
	edges = skeleton.NewImporter(b, frag, nil, nil).AppendRootEdges(edges)
	newSkel := b.Finish(b.Make(tag, edges))

	// sink.Close above committed the segment and directory; the skeleton
	// and then the manifest follow.
	if err := commitSkeleton(r.Store.FS(), r.Dir, newSkel, r.Syms, set); err != nil {
		return err
	}
	r.Skel = newSkel
	r.Classes = skeleton.NewClasses(newSkel, r.Syms)
	// The append is fully committed; results evaluated before this point
	// belong to the previous epoch.
	r.epoch.Add(1)
	return nil
}
