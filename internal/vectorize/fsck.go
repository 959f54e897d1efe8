package vectorize

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"vxml/internal/vector"
)

// FsckReport is the result of a clean Fsck run: what was verified, plus
// warnings for benign anomalies that do not make the repository invalid
// (orphaned append pages, unreferenced files).
type FsckReport struct {
	Vectors   int64 // vectors fully scanned
	Values    int64 // values decoded across all vectors
	PagesRead int64 // pages read (each CRC-verified on the way in)
	Warnings  []string
}

// Fsck deep-verifies the repository at dir and returns a report, or the
// first corruption found as an error wrapping storage.ErrCorrupt (naming
// the file, and where possible the page or offset). It checks:
//
//   - the manifest parses, and every file it lists is present with the
//     committed size/checksum (or is a newer self-consistent version left
//     by an interrupted append — reported as a warning, not an error);
//   - the skeleton decodes under its checksum footer, and the vector
//     directory under its footer and its extent invariants;
//   - every segment page an extent uses passes its CRC32C trailer and
//     every extent decodes to exactly its records, by scanning each vector
//     end to end;
//   - the skeleton's text-class occurrence counts (the '#'-marker counts)
//     equal the directory counts (Open's reconciliation) and the scanned
//     vector lengths — the cross-structure invariant queries rely on;
//   - segment pages past the committed ones, and files in the directory
//     that nothing references, are warned about.
//
// Fsck never panics on hostile input and never writes to the repository.
func Fsck(dir string, opts Options) (*FsckReport, error) {
	fsys := opts.fs()
	rep := &FsckReport{}

	m, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	if _, stale, err := verifyManifest(fsys, dir, m); err != nil {
		return nil, err
	} else if stale {
		rep.Warnings = append(rep.Warnings,
			"manifest lags a newer committed skeleton/directory (interrupted append; opening the repository repairs it)")
	}

	r, err := Open(dir, Options{PoolPages: opts.poolPages(), FS: opts.FS})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	set, ok := r.Vectors.(*vector.DiskSet)
	if !ok {
		return nil, fmt.Errorf("vectorize: fsck: %s is not disk-backed", dir)
	}

	// Open has reconciled the directory with the skeleton: every text
	// class's occurrence count (how many '#' markers its runs cover) is its
	// vector's count, or Open failed.
	if n := set.Len() - len(r.Classes.TextClasses()); n > 0 {
		rep.Warnings = append(rep.Warnings,
			fmt.Sprintf("%d vector(s) in the directory not reachable from the skeleton", n))
	}
	if n := set.Segment().NumPages() - set.Pages(); n > 0 {
		rep.Warnings = append(rep.Warnings,
			fmt.Sprintf("%d segment page(s) past the %d committed (an interrupted append; the next append cuts them)", n, set.Pages()))
	}

	// Full scan of every vector: reads every page through the CRC-checking
	// pool path and decodes every extent.
	before := r.Store.Pool().StatsSnapshot()
	for _, name := range set.Names() {
		v, err := set.Vector(name)
		if err != nil {
			return nil, fmt.Errorf("vectorize: fsck: %w", err)
		}
		var n int64
		if err := v.Scan(0, v.Len(), func(int64, []byte) error { n++; return nil }); err != nil {
			return nil, fmt.Errorf("vectorize: fsck: scan vector %q: %w", name, err)
		}
		rep.Vectors++
		rep.Values += n
	}
	after := r.Store.Pool().StatsSnapshot()
	rep.PagesRead = after.PagesRead - before.PagesRead

	// Anything on disk the manifest does not account for (a crashed Create
	// never leaves these inside dir, but users copy things around).
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var orphans []string
	for _, e := range entries {
		name := e.Name()
		if _, listed := m.Files[name]; e.IsDir() || listed || name == ManifestName || strings.HasSuffix(name, ".tmp") {
			continue
		}
		orphans = append(orphans, name)
	}
	sort.Strings(orphans)
	for _, name := range orphans {
		rep.Warnings = append(rep.Warnings,
			fmt.Sprintf("unreferenced file %s", filepath.Join(dir, name)))
	}
	return rep, nil
}
