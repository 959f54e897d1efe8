package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vxml/internal/obs"
)

type pageKey struct {
	file FileID
	page int64
}

// Frame is a pinned page in the buffer pool. Data is the page's payload
// (PageDataSize bytes — the CRC32C trailer is managed by the pool and is
// not visible here); callers may read it, and may write it only if they
// Unpin with dirty=true.
type Frame struct {
	key   pageKey
	file  *File
	full  []byte // whole page including trailer
	Data  []byte // full[:PageDataSize]
	pins  int32
	dirty bool
	// The frame's neighbours on the pool's LRU ring while it is unpinned;
	// nil while pinned. The links live in the frame, so unpinning
	// allocates nothing.
	prev, next *Frame
}

// BufferPool caches pages of many files with LRU eviction. Pinned frames
// are never evicted. It is safe for concurrent use; pin/unpin pairs must
// balance.
type BufferPool struct {
	mu       sync.Mutex
	capacity int
	frames   map[pageKey]*Frame
	lru      Frame // sentinel of the ring of unpinned frames: lru.next is the least recently used
	stats    poolCounters
	retry    RetryPolicy // guarded by mu
}

// poolCounters are a BufferPool's I/O counters, read as a Stats snapshot.
type poolCounters struct {
	hits, misses, pagesRead, pagesWrite, evictions atomic.Int64
}

// NewBufferPool returns a pool holding at most capacity pages.
func NewBufferPool(capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	p := &BufferPool{
		capacity: capacity,
		frames:   make(map[pageKey]*Frame, capacity),
		retry:    DefaultRetryPolicy,
	}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p
}

// unlink takes fr off the LRU ring if it is on it. Caller holds p.mu.
func (p *BufferPool) unlink(fr *Frame) {
	if fr.next != nil {
		fr.prev.next, fr.next.prev = fr.next, fr.prev
		fr.prev, fr.next = nil, nil
	}
}

// Capacity returns the pool capacity in pages.
func (p *BufferPool) Capacity() int { return p.capacity }

// SetRetryPolicy replaces the pool's transient-read retry policy (see
// RetryPolicy; new pools start with DefaultRetryPolicy).
func (p *BufferPool) SetRetryPolicy(rp RetryPolicy) {
	p.mu.Lock()
	p.retry = rp
	p.mu.Unlock()
}

func (p *BufferPool) retryPolicy() RetryPolicy {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retry
}

// Get pins the given page of file into the pool, reading it from disk on a
// miss. The caller must Unpin the returned frame.
func (p *BufferPool) Get(f *File, pageNo int64) (*Frame, error) {
	return p.GetMetered(f, pageNo, nil)
}

// GetMetered is Get with per-query attribution: a miss (a page fault-in
// from disk) is additionally charged to m — pages faulted, page bytes
// read, and the trailer verification when checksum verification is on.
// A nil meter makes it exactly Get.
func (p *BufferPool) GetMetered(f *File, pageNo int64, m *obs.TaskMeter) (*Frame, error) {
	return p.GetMeteredCtx(context.Background(), f, pageNo, m)
}

// GetMeteredCtx is GetMetered with the fault-tolerant read path: a page
// fill that fails with a transient I/O error (IsTransientRead) is retried
// up to the pool's RetryPolicy with exponential backoff + jitter, each
// retry charged to the meter and to storage.read_retries. The backoff
// sleeps outside the pool lock and respects ctx cancellation mid-sleep.
// When retries (or the meter's per-query budget) run out the LAST
// underlying error is returned wrapped, so callers still see the real
// fault, and storage.read_retry_exhausted counts the give-up.
//
// Integrity failures are never backoff-retried: a checksum mismatch gets
// exactly one immediate re-read (corruption in transit, not on disk,
// reads clean the second time) inside the fill, and an error wrapping
// ErrCorrupt after that surfaces unchanged for the caller to quarantine.
func (p *BufferPool) GetMeteredCtx(ctx context.Context, f *File, pageNo int64, m *obs.TaskMeter) (*Frame, error) {
	var rp RetryPolicy
	for attempt := 0; ; attempt++ {
		fr, err := p.getOnce(f, pageNo, m)
		if err == nil {
			return fr, nil
		}
		if !IsTransientRead(err) {
			return nil, err
		}
		if attempt == 0 {
			rp = p.retryPolicy() // read once, and only when a read failed
		}
		if attempt >= rp.Retries {
			if rp.Retries > 0 {
				obsReadRetryExhausted.Inc()
				return nil, fmt.Errorf("storage: read %s page %d: %d retries exhausted: %w", f.path, pageNo, attempt, err)
			}
			return nil, err
		}
		if rp.Budget > 0 && m.ReadRetries() >= rp.Budget {
			obsReadRetryExhausted.Inc()
			return nil, fmt.Errorf("storage: read %s page %d: per-query retry budget (%d) exhausted: %w", f.path, pageNo, rp.Budget, err)
		}
		m.ReadRetry()
		obsReadRetries.Inc()
		// Retry visibility on the request's trace: each backoff-retried
		// page read becomes an event on the enclosing span (nil-safe, so
		// untraced requests pay one pointer test on this cold path).
		obs.SpanFrom(ctx).Event(evReadRetry,
			obs.Str("file", f.path),
			obs.Int("page", pageNo),
			obs.Int("attempt", int64(attempt+1)),
			obs.Str("error", err.Error()))
		if serr := sleepBackoff(ctx, rp.backoffFor(attempt)); serr != nil {
			// Cancelled mid-backoff: the caller's context error wins, with
			// the fault that sent us to sleep attached for the log line.
			return nil, fmt.Errorf("%w (while retrying: %v)", serr, err)
		}
	}
}

// evReadRetry is the span event recorded for each transient-read retry
// performed on a query's behalf.
const evReadRetry = "storage.read_retry"

// getOnce is one pin-or-fill attempt. A failed fill discards the frame
// while still under the pool lock, so between attempts the pool holds no
// trace of the page and concurrent Gets race only against a consistent
// pool — a frame is either absent or verified-full, never empty.
func (p *BufferPool) getOnce(f *File, pageNo int64, m *obs.TaskMeter) (*Frame, error) {
	key := pageKey{f.id, pageNo}
	p.mu.Lock()
	if fr, ok := p.frames[key]; ok {
		fr.pins++
		p.unlink(fr)
		p.stats.hits.Add(1)
		obsPoolHits.Inc()
		p.mu.Unlock()
		return fr, nil
	}
	p.stats.misses.Add(1)
	obsPoolMisses.Inc()
	fr, err := p.newFrameLocked(key, f)
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	// Fill under the lock so a racing Get for the same page never observes
	// an empty frame. I/O under a mutex is coarse, but eviction writes
	// already happen here and the engine is sequential per query.
	p.stats.pagesRead.Add(1)
	obsPoolReads.Inc()
	err = f.readPage(pageNo, fr.full)
	if err != nil && errors.Is(err, ErrCorrupt) {
		// One immediate re-read: corruption in transit (not on the disk)
		// reads clean the second time; persistent corruption does not and
		// gets no further disk traffic from this pool.
		obsCorruptRereads.Inc()
		p.stats.pagesRead.Add(1)
		obsPoolReads.Inc()
		err = f.readPage(pageNo, fr.full)
	}
	if err != nil {
		// Discard the frame BEFORE releasing the lock. It holds our only
		// pin and was never on the LRU, so deleting it here is complete —
		// and doing it after unlock would open a window where a concurrent
		// Get finds the never-filled frame in the table and serves zeroed
		// page data as a hit (and, having pinned it, keeps the poison
		// frame alive past any later drop).
		delete(p.frames, key)
		p.mu.Unlock()
		return nil, err
	}
	p.mu.Unlock()
	m.PageFault(PageSize, checksumVerifyEnabled())
	return fr, nil
}

// Alloc pins a new zeroed page appended to file, returning the frame and
// the new page number. The frame is dirty by construction; Unpin it with
// dirty=true.
func (p *BufferPool) Alloc(f *File) (*Frame, int64, error) {
	f.mu.Lock()
	pageNo := f.pages
	f.pages++
	f.mu.Unlock()
	key := pageKey{f.id, pageNo}
	p.mu.Lock()
	fr, err := p.newFrameLocked(key, f)
	p.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	for i := range fr.full {
		fr.full[i] = 0
	}
	fr.dirty = true
	return fr, pageNo, nil
}

// newFrameLocked creates a pinned frame for key, evicting if needed.
// Caller holds p.mu.
func (p *BufferPool) newFrameLocked(key pageKey, f *File) (*Frame, error) {
	// A racing Get may have created it meanwhile (we are under the lock the
	// whole time in this implementation, so just check again).
	if fr, ok := p.frames[key]; ok {
		fr.pins++
		p.unlink(fr)
		return fr, nil
	}
	// A miss right after an eviction takes over the victim's page buffer
	// instead of allocating and zeroing a fresh one: every caller
	// overwrites it whole (a fill reads the full page, Alloc zeroes it).
	var full []byte
	for len(p.frames) >= p.capacity {
		vf := p.lru.next
		if vf == &p.lru {
			return nil, fmt.Errorf("storage: buffer pool exhausted (%d pages, all pinned)", p.capacity)
		}
		p.unlink(vf)
		delete(p.frames, vf.key)
		p.stats.evictions.Add(1)
		obsPoolEvictions.Inc()
		if vf.dirty {
			p.stats.pagesWrite.Add(1)
			obsPoolWrites.Inc()
			if err := vf.file.writePage(vf.key.page, vf.full); err != nil {
				return nil, err
			}
		}
		// The victim is unpinned, so no caller may still read it; a stale
		// *Frame used anyway fails on the nil slices instead of reading the
		// next page's bytes.
		full, vf.full, vf.Data = vf.full, nil, nil
	}
	if full == nil {
		full = make([]byte, PageSize)
	}
	fr := &Frame{key: key, file: f, full: full, Data: full[:PageDataSize], pins: 1}
	p.frames[key] = fr
	return fr, nil
}

// Unpin releases a pin. If dirty, the page will be written back before
// eviction or on Flush.
func (p *BufferPool) Unpin(fr *Frame, dirty bool) {
	p.release(fr, dirty)
}

func (p *BufferPool) release(fr *Frame, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if dirty {
		fr.dirty = true
	}
	fr.pins--
	if fr.pins < 0 {
		//vx:unreachable pin accounting is caller misuse, not decoded bytes
		panic("storage: unbalanced Unpin")
	}
	if fr.pins == 0 {
		fr.prev, fr.next = p.lru.prev, &p.lru
		fr.prev.next, p.lru.prev = fr, fr
	}
}

// Flush writes all dirty pages back to their files. Pinned frames are
// flushed too (their content at this moment).
func (p *BufferPool) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fr := range p.frames {
		if fr.dirty {
			p.stats.pagesWrite.Add(1)
			obsPoolWrites.Inc()
			if err := fr.file.writePage(fr.key.page, fr.full); err != nil {
				return err
			}
			fr.dirty = false
		}
	}
	return nil
}

// DropFile flushes and forgets all frames of file f (used when closing a
// single file). Pinned frames cause an error.
func (p *BufferPool) DropFile(f *File) error {
	return p.drop(f, func(int64) bool { return true })
}

// DropPage flushes and forgets page pageNo of f, if cached, so the next
// Get reads it from disk (the re-verify path). A pinned frame is an error.
func (p *BufferPool) DropPage(f *File, pageNo int64) error {
	return p.drop(f, func(page int64) bool { return page == pageNo })
}

func (p *BufferPool) drop(f *File, match func(page int64) bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, fr := range p.frames {
		if key.file != f.id || !match(key.page) {
			continue
		}
		if fr.pins > 0 {
			return fmt.Errorf("storage: drop %s: page %d still pinned", f.path, key.page)
		}
		if fr.dirty {
			p.stats.pagesWrite.Add(1)
			obsPoolWrites.Inc()
			if err := fr.file.writePage(fr.key.page, fr.full); err != nil {
				return err
			}
		}
		p.unlink(fr)
		delete(p.frames, key)
	}
	return nil
}

// Truncate cuts file f back to the given page count, discarding any
// cached frames (dirty or not) for the removed pages — they are orphans
// from an uncommitted append being rolled back, not data to preserve.
// A pinned frame in the removed range is a caller bug and errors out.
func (p *BufferPool) Truncate(f *File, pages int64) error {
	p.mu.Lock()
	for key, fr := range p.frames {
		if key.file != f.id || key.page < pages {
			continue
		}
		if fr.pins > 0 {
			p.mu.Unlock()
			return fmt.Errorf("storage: Truncate %s to %d pages: page %d still pinned", f.path, pages, key.page)
		}
		p.unlink(fr)
		delete(p.frames, key)
	}
	p.mu.Unlock()
	return f.truncate(pages)
}

// StatsSnapshot returns a copy of the pool's I/O counters.
func (p *BufferPool) StatsSnapshot() Stats {
	return Stats{
		Hits:       p.stats.hits.Load(),
		Misses:     p.stats.misses.Load(),
		PagesRead:  p.stats.pagesRead.Load(),
		PagesWrite: p.stats.pagesWrite.Load(),
		Evictions:  p.stats.evictions.Load(),
	}
}

// ResetStats zeroes the I/O counters (between benchmark runs).
func (p *BufferPool) ResetStats() {
	p.stats.hits.Store(0)
	p.stats.misses.Store(0)
	p.stats.pagesRead.Store(0)
	p.stats.pagesWrite.Store(0)
	p.stats.evictions.Store(0)
}
