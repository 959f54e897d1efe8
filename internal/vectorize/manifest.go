package vectorize

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"vxml/internal/storage"
)

// The MANIFEST is the repository's self-description: format version and,
// for each of the repository's files, its committed size plus either a
// whole-file CRC32C (the skeleton and the vector directory, which are
// rewritten atomically) or a committed page count (the vector segment,
// which grows in place and carries per-page CRCs instead).
//
// The manifest is written last on every commit, so it is allowed to lag
// the files it describes by exactly one interrupted append: a described
// file that differs from its manifest entry but carries a valid in-band
// checksum footer is a newer committed version (the crash hit between the
// file's commit and the manifest's), and Open adopts it and repairs the
// manifest. A described file whose own checksum fails is bit rot and is
// reported as ErrCorrupt with the file and offset.

// ManifestName is the manifest's file name within a repository directory.
const ManifestName = "MANIFEST"

// The repository's other files: the skeleton, and the vector set — its
// segment of pages and the directory describing them.
const (
	skeletonFile  = "skeleton.bin"
	vectorStem    = "vectors"
	segmentFile   = vectorStem + ".seg"
	directoryFile = vectorStem + ".dir"
)

// manifestFormat is the repository format version. Version 3 packs the
// vectors into one segment behind a binary directory; version 2 (one
// paged file per vector and a JSON catalog) and version 1 (no manifest)
// are not readable and must be rebuilt from source XML.
const manifestFormat = 3

// FormatVersion reports the repository format version this build reads
// and writes, for build-info surfaces such as vx_build_info on /metrics.
func FormatVersion() int { return manifestFormat }

// Manifest describes a committed repository.
type Manifest struct {
	Format int                     `json:"format"`
	Files  map[string]ManifestFile `json:"files"`
}

// ManifestFile describes one committed file.
type ManifestFile struct {
	// Size is the file's byte size at commit. Paged files may legitimately
	// be larger (an orphaned append tail); anything smaller is truncation.
	Size int64 `json:"size"`
	// CRC32C is the hex CRC32C of the whole on-disk file, for files
	// rewritten atomically on every commit. Empty for the paged segment.
	CRC32C string `json:"crc32c,omitempty"`
	// Pages is the committed page count of the paged segment.
	Pages int64 `json:"pages,omitempty"`
}

// paged reports whether the entry describes the paged segment.
func (f ManifestFile) paged() bool { return f.CRC32C == "" }

// writeManifest builds and atomically writes dir's manifest, the segment
// holding segPages committed pages; the skeleton and directory are read
// back from disk so the manifest records exactly the committed bytes.
func writeManifest(fsys storage.FS, dir string, segPages int64) error {
	m := Manifest{Format: manifestFormat, Files: make(map[string]ManifestFile)}
	for _, name := range []string{skeletonFile, directoryFile} {
		data, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("vectorize: manifest: %w", err)
		}
		m.Files[name] = ManifestFile{
			Size:   int64(len(data)),
			CRC32C: fmt.Sprintf("%08x", storage.Checksum(data)),
		}
	}
	m.Files[segmentFile] = ManifestFile{Size: segPages * storage.PageSize, Pages: segPages}
	data, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return err
	}
	if err := storage.WriteFileAtomic(fsys, filepath.Join(dir, ManifestName), data); err != nil {
		return fmt.Errorf("vectorize: write manifest: %w", err)
	}
	return nil
}

// readManifest reads and validates dir's manifest.
func readManifest(fsys storage.FS, dir string) (*Manifest, error) {
	body, err := storage.ReadFileChecksummed(fsys, filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("vectorize: %s has no %s: not a repository, an incomplete build, or a format-1 repository (rebuild from the source XML)", dir, ManifestName)
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("vectorize: parse %s: %v: %w", ManifestName, err, storage.ErrCorrupt)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("vectorize: %s: unsupported repository format %d (this build reads format %d; rebuild from the source XML)", dir, m.Format, manifestFormat)
	}
	for _, name := range []string{skeletonFile, directoryFile, segmentFile} {
		if _, ok := m.Files[name]; !ok {
			return nil, fmt.Errorf("vectorize: %s does not list %s: %w", ManifestName, name, storage.ErrCorrupt)
		}
	}
	return &m, nil
}

// verifyManifest checks every file the manifest describes and returns the
// bodies (checksum footers verified and stripped) of the atomically
// rewritten ones, so Open reads each file once. It returns stale=true when
// one of those is a newer committed version than the manifest records
// (interrupted append: adopt the file, repair the manifest); corruption
// returns an error wrapping ErrCorrupt naming the file.
func verifyManifest(fsys storage.FS, dir string, m *Manifest) (bodies map[string][]byte, stale bool, err error) {
	bodies = make(map[string][]byte, len(m.Files))
	for name, mf := range m.Files {
		path := filepath.Join(dir, name)
		if mf.paged() {
			st, err := fsys.Stat(path)
			if err != nil {
				return nil, false, fmt.Errorf("vectorize: %s listed in manifest: %w", name, err)
			}
			if st.Size()%storage.PageSize != 0 {
				return nil, false, fmt.Errorf("vectorize: %s: size %d not page aligned: %w", name, st.Size(), storage.ErrCorrupt)
			}
			if pages := st.Size() / storage.PageSize; pages < mf.Pages {
				return nil, false, fmt.Errorf("vectorize: %s: truncated to %d pages, manifest committed %d: %w", name, pages, mf.Pages, storage.ErrCorrupt)
			}
			continue
		}
		data, err := fsys.ReadFile(path)
		if err != nil {
			return nil, false, fmt.Errorf("vectorize: %s listed in manifest: %w", name, err)
		}
		if fmt.Sprintf("%08x", storage.Checksum(data)) == mf.CRC32C {
			if int64(len(data)) != mf.Size {
				return nil, false, fmt.Errorf("vectorize: %s: size %d differs from manifest %d: %w", name, len(data), mf.Size, storage.ErrCorrupt)
			}
		} else {
			// Mismatch against the manifest. If the file's own footer
			// verifies, it is a newer committed version (crash before the
			// manifest write); otherwise the file itself is damaged.
			stale = true
		}
		if bodies[name], err = storage.VerifyFooter(path, data); err != nil {
			return nil, false, err
		}
	}
	return bodies, stale, nil
}
