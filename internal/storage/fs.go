package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS abstracts the filesystem operations the storage substrate performs,
// so tests can inject faults and simulate crashes (see MemFS and FaultFS)
// while production runs on the real OS filesystem (OsFS). Every durable
// path in the system — paged vector files, the catalog, the skeleton, the
// manifest — goes through an FS.
type FS interface {
	// OpenFile opens a file with os.OpenFile semantics.
	OpenFile(path string, flag int, perm os.FileMode) (FSFile, error)
	// ReadFile reads a whole file.
	ReadFile(path string) ([]byte, error)
	// Stat stats a path.
	Stat(path string) (os.FileInfo, error)
	// Rename atomically renames oldpath to newpath (same filesystem).
	Rename(oldpath, newpath string) error
	// Remove deletes a file or empty directory.
	Remove(path string) error
	// RemoveAll deletes a path recursively.
	RemoveAll(path string) error
	// MkdirAll creates a directory and its parents.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory.
	ReadDir(path string) ([]os.DirEntry, error)
	// SyncDir fsyncs a directory, making renames/creates within it
	// durable. Required after Rename for crash safety.
	SyncDir(path string) error
}

// FSFile is an open file: positional I/O plus durability.
type FSFile interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Sync flushes the file's data to stable storage.
	Sync() error
	// Truncate resizes the file.
	Truncate(size int64) error
}

// OsFS is the real filesystem.
type OsFS struct{}

// DefaultFS is the FS used when none is supplied.
var DefaultFS FS = OsFS{}

func (OsFS) OpenFile(path string, flag int, perm os.FileMode) (FSFile, error) {
	return os.OpenFile(path, flag, perm)
}

func (OsFS) ReadFile(path string) ([]byte, error)  { return os.ReadFile(path) }
func (OsFS) Stat(path string) (os.FileInfo, error) { return os.Stat(path) }
func (OsFS) Rename(oldpath, newpath string) error  { return os.Rename(oldpath, newpath) }
func (OsFS) Remove(path string) error              { return os.Remove(path) }
func (OsFS) RemoveAll(path string) error           { return os.RemoveAll(path) }
func (OsFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (OsFS) ReadDir(path string) ([]os.DirEntry, error) { return os.ReadDir(path) }

func (OsFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: sync dir %s: %w", path, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: sync dir %s: %w", path, err)
	}
	return nil
}

// WriteFileAtomic writes data to path durably: the bytes (plus a CRC32C
// footer, see checksum.go) go to path+".tmp", which is fsynced, renamed
// over path, and the parent directory fsynced — the tmp+fsync+rename+
// dirsync discipline. A crash at any point leaves either the old file or
// the new one, never a torn mix.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: write %s: %w", path, err)
	}
	footer := checksumFooter(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		f.Close()
		return fmt.Errorf("storage: write %s: %w", path, err)
	}
	if _, err := f.WriteAt(footer, int64(len(data))); err != nil {
		f.Close()
		return fmt.Errorf("storage: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: fsync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: close %s: %w", path, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("storage: rename %s: %w", path, err)
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// ReadFileChecksummed reads a file written by WriteFileAtomic, verifies
// its CRC32C footer, and returns the body (without the footer). Integrity
// failures wrap ErrCorrupt and name the file and offset.
func ReadFileChecksummed(fsys FS, path string) ([]byte, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return VerifyFooter(path, data)
}

// VerifyFooter is ReadFileChecksummed for bytes already read from path:
// it verifies their CRC32C footer and returns the body.
func VerifyFooter(path string, data []byte) ([]byte, error) {
	body, err := verifyChecksumFooter(data)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	return body, nil
}
