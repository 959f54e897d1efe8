package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Store manages a directory of paged files sharing one buffer pool — the
// system's storage manager. Vector sets, relational tables and the document
// store all open their files through a Store.
type Store struct {
	dir  string
	fs   FS
	pool *BufferPool

	mu     sync.Mutex
	nextID FileID
	open   map[string]*File // by relative name
}

// OpenStore opens (creating if needed) a store rooted at dir with a buffer
// pool of poolPages pages, on the real filesystem.
func OpenStore(dir string, poolPages int) (*Store, error) {
	return OpenStoreFS(DefaultFS, dir, poolPages)
}

// OpenStoreFS is OpenStore on an explicit FS (fault injection, crash
// simulation).
func OpenStoreFS(fsys FS, dir string, poolPages int) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open store: %w", err)
	}
	return &Store{
		dir:  dir,
		fs:   fsys,
		pool: NewBufferPool(poolPages),
		open: make(map[string]*File),
	}, nil
}

// FS returns the filesystem this store performs its I/O on.
func (s *Store) FS() FS { return s.fs }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Pool returns the shared buffer pool.
func (s *Store) Pool() *BufferPool { return s.pool }

// Open opens (creating if absent) the paged file with the given relative
// name. Names may contain '/' separators; directories are created as
// needed. Opening the same name twice returns the same *File.
func (s *Store) Open(name string) (*File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.open[name]; ok {
		return f, nil
	}
	path := filepath.Join(s.dir, filepath.FromSlash(name))
	if err := s.fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", name, err)
	}
	var pages int64
	if st, err := s.fs.Stat(path); err == nil {
		if st.Size()%PageSize != 0 {
			return nil, fmt.Errorf("storage: %s size %d not page aligned: %w", name, st.Size(), ErrCorrupt)
		}
		pages = st.Size() / PageSize
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: stat %s: %w", name, err)
	}
	f := &File{id: s.nextID, path: path, fs: s.fs, pages: pages}
	s.nextID++
	s.open[name] = f
	return f, nil
}

// Names returns the relative names of all currently open files, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.open))
	for n := range s.open {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Remove flushes, closes and deletes the named file.
func (s *Store) Remove(name string) error {
	s.mu.Lock()
	f, ok := s.open[name]
	if ok {
		delete(s.open, name)
	}
	s.mu.Unlock()
	if ok {
		if err := s.pool.DropFile(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return s.fs.Remove(f.path)
	}
	return s.fs.Remove(filepath.Join(s.dir, filepath.FromSlash(name)))
}

// Close flushes the pool and closes all files.
func (s *Store) Close() error {
	if err := s.pool.Flush(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for name, f := range s.open {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.open, name)
	}
	return first
}
