package pager

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// fileGrowPages is the allocation granularity of a FileStore: the backing
// file is extended this many pages at a time so Allocate is not one
// truncate syscall per page during bulk load.
const fileGrowPages = 256

// ErrStoreClosed is returned by FileStore operations after Close.
var ErrStoreClosed = errors.New("pager: file store is closed")

// FileStore is a disk-backed Store: the same append-only page file contract
// as the simulated PageStore, but on a real file. Writes go through
// (*os.File).WriteAt; reads are served zero-copy from a read-only mmap of
// the file where the platform supports it (see mmap_unix.go) and fall back
// to pread into a scratch buffer elsewhere. On Linux and Darwin the shared
// mapping is coherent with WriteAt through the unified page cache, so a page
// written during bulk load is immediately visible to mapped reads.
//
// FileStore carries the same fault-injector and breaker hooks as the
// simulated store, so resilience tests and chaos tooling work unchanged
// against real disk. It is safe for concurrent use, with one caveat:
// Close must not race with in-flight reads — unmapping while a reader still
// holds a ReadPage slice is a use-after-free. Callers (the serving registry,
// the CLIs) quiesce queries before closing.
type FileStore struct {
	hooks
	mu      sync.RWMutex
	f       *os.File
	path    string
	temp    bool // created by us in the temp dir; removed on Close
	n       int  // allocated pages
	sizedTo int  // pages the file has been truncated to cover
	mapped  []byte
	closed  bool
	sticky  error // first grow/map failure; surfaced by later ops
}

// CreateFileStore creates (truncating) a page file at path. An empty path
// creates an unlinked temporary file that is removed on Close — the backing
// spill mode used for indexes that only need to outlive RAM, not the
// process.
func CreateFileStore(path string) (*FileStore, error) {
	var f *os.File
	var err error
	temp := path == ""
	if temp {
		f, err = os.CreateTemp("", "skydiver-pages-*.skp")
	} else {
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("pager: create file store: %w", err)
	}
	return &FileStore{f: f, path: f.Name(), temp: temp}, nil
}

// OpenFileStore opens an existing page file for reading and writing. The
// file length must be a whole number of pages; every existing page is
// considered allocated.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("pager: open file store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: open file store: %w", err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("pager: open file store %s: size %d is not a multiple of the %d-byte page size", path, st.Size(), PageSize)
	}
	n := int(st.Size() / PageSize)
	return &FileStore{f: f, path: path, n: n, sizedTo: n}, nil
}

// Path returns the backing file's path.
func (fs *FileStore) Path() string { return fs.path }

// NumPages returns the number of allocated pages.
func (fs *FileStore) NumPages() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.n
}

// Allocate appends a zeroed page and returns its id. The backing file grows
// in fileGrowPages batches; a failed grow is sticky and resurfaces on every
// later read or write so bulk loaders cannot silently build over a hole.
func (fs *FileStore) Allocate() PageID {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	id := PageID(fs.n)
	fs.n++
	if fs.n > fs.sizedTo && fs.sticky == nil && !fs.closed {
		grow := fs.sizedTo + fileGrowPages
		if grow < fs.n {
			grow = fs.n
		}
		if err := fs.f.Truncate(int64(grow) * PageSize); err != nil {
			fs.sticky = fmt.Errorf("pager: grow file store to %d pages: %w", grow, err)
		} else {
			fs.sizedTo = grow
		}
	}
	return id
}

// ReadPage returns the raw contents of page id, straight from the mapping
// when one covers it (zero-copy; treat as read-only) and via pread into a
// private buffer otherwise.
func (fs *FileStore) ReadPage(id PageID) ([]byte, error) {
	fs.mu.RLock()
	if err := fs.brokenLocked(); err != nil {
		fs.mu.RUnlock()
		return nil, err
	}
	if int(id) >= fs.n {
		n := fs.n
		fs.mu.RUnlock()
		return nil, fmt.Errorf("pager: read of unallocated page %d (have %d)", id, n)
	}
	off := int(id) * PageSize
	if off+PageSize <= len(fs.mapped) {
		raw := fs.mapped[off : off+PageSize : off+PageSize]
		fs.mu.RUnlock()
		return fs.screen(id, raw)
	}
	fs.mu.RUnlock()
	return fs.readSlow(id)
}

// readSlow covers pages beyond the current mapping: it first tries to extend
// the mapping over the whole file, then falls back to pread.
func (fs *FileStore) readSlow(id PageID) ([]byte, error) {
	fs.mu.Lock()
	if err := fs.brokenLocked(); err != nil {
		fs.mu.Unlock()
		return nil, err
	}
	if int(id) >= fs.n {
		n := fs.n
		fs.mu.Unlock()
		return nil, fmt.Errorf("pager: read of unallocated page %d (have %d)", id, n)
	}
	fs.remapLocked()
	off := int(id) * PageSize
	if off+PageSize <= len(fs.mapped) {
		raw := fs.mapped[off : off+PageSize : off+PageSize]
		fs.mu.Unlock()
		return fs.screen(id, raw)
	}
	// No mapping (unsupported platform or mmap failure): pread into a fresh
	// buffer. One allocation per fallback read keeps concurrent readers safe.
	buf := make([]byte, PageSize)
	f := fs.f
	fs.mu.Unlock()
	if _, err := f.ReadAt(buf, int64(off)); err != nil {
		return nil, fmt.Errorf("pager: read page %d from %s: %w", id, fs.path, err)
	}
	return fs.screen(id, buf)
}

// remapLocked (re)maps the file read-only over every sized page. Mapping
// failure is not sticky — the pread fallback still works — except on
// platforms where mmap is supported and the file cannot be mapped at all,
// which readSlow surfaces naturally via ReadAt errors.
func (fs *FileStore) remapLocked() {
	want := fs.sizedTo * PageSize
	if want == 0 || len(fs.mapped) >= want {
		return
	}
	if fs.mapped != nil {
		munmapFile(fs.mapped)
		fs.mapped = nil
	}
	if m, err := mmapFile(fs.f, want); err == nil {
		fs.mapped = m
	}
}

// WritePage replaces the contents of page id. The buffer must be exactly
// PageSize bytes.
func (fs *FileStore) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("pager: write of %d bytes, want %d", len(buf), PageSize)
	}
	fs.mu.RLock()
	if err := fs.brokenLocked(); err != nil {
		fs.mu.RUnlock()
		return err
	}
	if int(id) >= fs.n {
		n := fs.n
		fs.mu.RUnlock()
		return fmt.Errorf("pager: write of unallocated page %d (have %d)", id, n)
	}
	f := fs.f
	fs.mu.RUnlock()
	if _, err := f.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("pager: write page %d to %s: %w", id, fs.path, err)
	}
	return nil
}

// Sync flushes the backing file to stable storage.
func (fs *FileStore) Sync() error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if err := fs.brokenLocked(); err != nil {
		return err
	}
	if err := fs.f.Sync(); err != nil {
		return fmt.Errorf("pager: sync %s: %w", fs.path, err)
	}
	return nil
}

// Close unmaps and closes the backing file, removing it when it was a
// temporary spill file. Closing twice is a no-op. Callers must ensure no
// reads are in flight (see the type comment).
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil
	}
	fs.closed = true
	if fs.mapped != nil {
		munmapFile(fs.mapped)
		fs.mapped = nil
	}
	err := fs.f.Close()
	if fs.temp {
		if rmErr := os.Remove(fs.path); err == nil {
			err = rmErr
		}
	}
	if err != nil {
		return fmt.Errorf("pager: close %s: %w", fs.path, err)
	}
	return nil
}

// brokenLocked reports the store's sticky failure state; fs.mu must be held.
func (fs *FileStore) brokenLocked() error {
	if fs.closed {
		return ErrStoreClosed
	}
	return fs.sticky
}
