package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// workers resolves the effective intra-query worker count.
func (e *Engine) workers() int {
	if w := e.Opts.Workers; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// rowChunks picks how many contiguous row ranges to fan a scan over: a few
// chunks per worker evens out skew, but never more chunks than rows, and a
// single chunk (serial) when there is no parallelism to exploit.
func rowChunks(workers, rows int) int {
	if workers <= 1 || rows <= 1 {
		return 1
	}
	n := workers * 4
	if n > rows {
		n = rows
	}
	return n
}

// parallelFor runs fn(0..n-1) across at most workers goroutines. Every
// task runs exactly once (tasks claim indices from an atomic counter), and
// on failure the error of the lowest-indexed failing task is returned —
// the same error a serial loop would surface, whatever the interleaving.
// With workers <= 1 (or a single task) it runs inline, goroutine-free.
//
// ctx is checked before each task claim: a cancelled evaluation stops
// fanning out promptly, and tasks already running are cut short by the
// per-scan cancellation checks inside them. ctx may be nil.
func parallelFor(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		errIdx  = n
		firstEr error
	)
	// A panic on a worker goroutine cannot unwind to the evaluation's
	// recover boundary (recover only sees the panicking goroutine), so it
	// is converted to a *PanicError here and forwarded through the normal
	// first-error channel; the boundary in evalWithSinkTraced records it
	// exactly as if the panic had happened inline.
	call := func(i int) (err error) {
		defer func() {
			//vx:recover-boundary worker panics forward as errors to the eval boundary
			r := recover()
			if r == nil {
				return
			}
			stack := debug.Stack()
			err = &PanicError{Value: r, Stack: stack}
		}()
		return fn(i)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := call(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, firstEr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstEr == nil {
		// All completed tasks succeeded; a cancellation race may still have
		// skipped tasks, which must not read as success.
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return firstEr
}
