// Package par provides the concurrency primitives the experiment engine is
// built from: a bounded worker pool, a deterministic indexed fan-out helper,
// and a single-flight memoizing cache (cache.go).
//
// The design goal is determinism under parallelism: experiment drivers fan
// work out over a Pool but merge results into pre-sized, index-addressed
// slots, so the rendered tables and figures are byte-identical regardless of
// worker count or completion order.
package par

import (
	"context"
	"runtime"
	"sync"
)

// DefaultWorkers returns the default pool size: the process's GOMAXPROCS.
func DefaultWorkers() int {
	return max(1, runtime.GOMAXPROCS(0))
}

// Pool is a bounded parallel executor. Submitted tasks run on at most
// `workers` goroutines at once; excess submissions block in Go until a slot
// frees up. The zero value is not usable; call NewPool.
type Pool struct {
	sem chan struct{}
	wg  sync.WaitGroup

	mu  sync.Mutex
	err error
}

// NewPool returns a pool running at most workers tasks concurrently.
// workers <= 0 selects DefaultWorkers().
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Go submits one task. It blocks while all workers are busy (providing
// backpressure so a large fan-out does not materialize every task at once).
func (p *Pool) Go(fn func() error) {
	p.wg.Add(1)
	p.sem <- struct{}{}
	go func() {
		defer p.wg.Done()
		defer func() { <-p.sem }()
		if err := fn(); err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.mu.Unlock()
		}
	}()
}

// Wait blocks until every submitted task has finished and returns the first
// error observed (in completion order). For a deterministic error choice use
// ForEachCtx, which reports the lowest-index failure.
func (p *Pool) Wait() error {
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Meter observes worker occupancy: Acquire when a task starts running,
// Release when it finishes. Implementations must be safe for concurrent use
// (obs.Gauge satisfies this, tracking busy count and high-water mark).
type Meter interface {
	Acquire()
	Release()
}

// ForEachCtx runs fn(i) for every i in [0, n) on a bounded pool of
// `workers` goroutines (<= 0 selects DefaultWorkers) and waits for all of
// them.
//
// Each index writes its error into a private slot, and ForEachCtx returns
// the non-nil error with the lowest index — so the error path, like the
// success path, is independent of scheduling order. Once ctx is done no
// further indices are launched (already-running tasks finish normally; fn
// observes cancellation itself if it checks ctx). If every launched task
// succeeded but some indices were skipped, it returns ctx's error.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForEachMeterCtx(ctx, workers, n, nil, fn)
}

// ForEachMeterCtx is ForEachCtx with an occupancy meter; m == nil meters
// nothing. Error choice stays deterministic: the non-nil error with the
// lowest index wins, and a context error is reported only when no launched
// task failed first.
func ForEachMeterCtx(ctx context.Context, workers, n int, m Meter, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	done := ctx.Done()
	skipped := false
launch:
	for i := 0; i < n; i++ {
		// Check cancellation before blocking on a worker slot, and
		// again while waiting for one, so a cancelled fan-out stops
		// submitting as soon as the context fires.
		select {
		case <-done:
			skipped = true
			break launch
		default:
		}
		select {
		case <-done:
			skipped = true
			break launch
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if m != nil {
				m.Acquire()
				defer m.Release()
			}
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if skipped {
		return ctx.Err()
	}
	return nil
}
