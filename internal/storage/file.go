// Package storage is the Shore-like storage substrate of the system
// (the paper stored each vector "as a separate clustered file" on top of
// the Shore storage manager). It provides fixed-size paged files and a
// shared buffer pool with pin/unpin semantics and LRU eviction, plus I/O
// counters so experiments can report page traffic alongside wall time.
//
// Every page carries a CRC32C trailer stamped on write and verified on
// read (see checksum.go), so bit rot and torn writes surface as typed
// ErrCorrupt errors instead of silently wrong query answers. All file
// I/O goes through an injectable FS (see fs.go), which is how the
// crash-safety tests simulate power loss at every write.
//
// A store holds a handful of files (a repository's vectors share one
// segment), each opening its OS descriptor on first I/O.
package storage

import (
	"fmt"
	"os"
	"sync"
)

// PageSize is the fixed page size, 8 KiB as in classic storage managers.
// The last pageTrailerSize bytes of each page hold its CRC32C; clients
// see only the first PageDataSize bytes through Frame.Data.
const PageSize = 8192

// FileID identifies an open file within one buffer pool.
type FileID int32

// File is a paged file: a sequence of PageSize pages addressed by page
// number. Pages are read and written only through a BufferPool.
type File struct {
	id   FileID
	path string
	fs   FS

	mu    sync.Mutex
	f     FSFile // nil until the first I/O
	pages int64  // allocated page count
}

// Path returns the file's path on disk.
func (f *File) Path() string { return f.path }

// NumPages returns the number of allocated pages.
func (f *File) NumPages() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pages
}

// Size returns the file size in bytes.
func (f *File) Size() int64 { return f.NumPages() * PageSize }

func (f *File) readPage(pageNo int64, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.ensureOpen(); err != nil {
		return err
	}
	if _, err := f.f.ReadAt(buf[:PageSize], pageNo*PageSize); err != nil {
		return fmt.Errorf("storage: read %s page %d: %w", f.path, pageNo, err)
	}
	if err := verifyPage(buf[:PageSize]); err != nil {
		return fmt.Errorf("storage: read %s page %d (offset %d): %w", f.path, pageNo, pageNo*PageSize, err)
	}
	return nil
}

func (f *File) writePage(pageNo int64, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.ensureOpen(); err != nil {
		return err
	}
	stampPage(buf[:PageSize])
	if _, err := f.f.WriteAt(buf[:PageSize], pageNo*PageSize); err != nil {
		return fmt.Errorf("storage: write %s page %d: %w", f.path, pageNo, err)
	}
	return nil
}

// Sync flushes the file's written pages to stable storage. The owner must
// have flushed the buffer pool first for the sync to cover them.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.ensureOpen(); err != nil {
		return err
	}
	if err := f.f.Sync(); err != nil {
		return fmt.Errorf("storage: fsync %s: %w", f.path, err)
	}
	return nil
}

// truncate shrinks the file to the given page count. Callers go through
// BufferPool.Truncate, which first discards cached frames for the removed
// pages.
func (f *File) truncate(pages int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if pages >= f.pages {
		return nil
	}
	if err := f.ensureOpen(); err != nil {
		return err
	}
	if err := f.f.Truncate(pages * PageSize); err != nil {
		return fmt.Errorf("storage: truncate %s to %d pages: %w", f.path, pages, err)
	}
	f.pages = pages
	return nil
}

// ensureOpen opens f's descriptor on first use. The caller must hold f.mu.
func (f *File) ensureOpen() error {
	if f.f != nil {
		return nil
	}
	fsys := f.fs
	if fsys == nil {
		fsys = DefaultFS
	}
	osf, err := fsys.OpenFile(f.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("storage: open %s: %w", f.path, err)
	}
	f.f = osf
	return nil
}

// Close closes the underlying OS file if open. The owner (Store or test)
// must have flushed the buffer pool first.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.f == nil {
		return nil
	}
	err := f.f.Close()
	f.f = nil
	return err
}

// Stats aggregates I/O counters for a buffer pool. All fields are
// monotonic; read them with StatsSnapshot on BufferPool.
type Stats struct {
	Hits       int64 // page requests served from the pool
	Misses     int64 // page requests that read from disk
	PagesRead  int64
	PagesWrite int64
	Evictions  int64
}
