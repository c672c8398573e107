package dataset

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the morsel-parallel execution layer of the substrate
// (morsel-driven parallelism in the style of HyPer): tables are split into
// word-aligned morsels of morselRows rows, and a small shared worker pool
// executes the hot kernels — predicate compilation (Table.Where), selection
// algebra (And/Or/Not) and the view aggregations — one morsel per task.
//
// The design invariant is that parallel execution is bit-identical to
// sequential execution:
//
//   - selection kernels give each morsel a disjoint, word-aligned range of the
//     output bitmap, so workers never share a word and no merge step exists;
//   - aggregations are integer tallies: each participating goroutine counts
//     the morsels it draws into its own accumulator, and the accumulators are
//     summed after the pool drains — integer sums do not depend on order;
//   - Floats writes each morsel's values at a precomputed prefix-sum offset,
//     preserving row order exactly.
//
// Inputs smaller than one morsel (and pools pinned to one worker) run the
// very same kernel bodies sequentially on the calling goroutine — that
// sequential path is the reference the differential tests compare against,
// and the cutoff keeps small-table latency free of scheduling overhead.

const (
	// morselRows is the number of rows per morsel. It is a multiple of 64 so
	// every morsel boundary falls on a Selection word boundary, which is what
	// lets workers fill disjoint word ranges of one bitmap without locking.
	morselRows = 16384
	// morselWords is the morsel size in Selection words, used when the unit of
	// work is a word range (selection algebra) rather than a row range.
	morselWords = morselRows / 64
)

// PoolStats is a snapshot of a pool's execution counters.
type PoolStats struct {
	// Workers is the pool's parallelism (including the calling goroutine).
	Workers int `json:"workers"`
	// TasksExecuted counts closures handed to pool worker goroutines.
	TasksExecuted uint64 `json:"tasks_executed"`
	// MorselsProcessed counts morsels executed through Run (by workers and by
	// the calling goroutine alike).
	MorselsProcessed uint64 `json:"morsels_processed"`
	// SequentialCutoffHits counts kernel invocations that skipped the pool
	// because the input was smaller than one morsel (or the pool is pinned to
	// a single worker).
	SequentialCutoffHits uint64 `json:"sequential_cutoff_hits"`
	// HelperHandoffs counts helper closures accepted by an idle background
	// worker; HelperRejections counts the attempts that found every worker
	// busy, so the calling goroutine kept the morsels for itself. Their ratio
	// is the pool's contention signal.
	HelperHandoffs   uint64 `json:"helper_handoffs"`
	HelperRejections uint64 `json:"helper_rejections"`
	// QueueWaitNs is the cumulative delay between handing a helper to the
	// task channel and the worker starting it — the pool's queueing time. It
	// stays near zero by design: handoff is non-blocking, so helpers never
	// queue behind other callers' work, only behind the worker's wakeup.
	QueueWaitNs uint64 `json:"queue_wait_ns"`
}

// Pool is a bounded worker pool shared by the parallel kernels. A pool of W
// workers runs W-1 background goroutines; the calling goroutine always
// participates, so a Pool with Workers()==1 executes everything sequentially
// on the caller — the deterministic-debugging configuration (-workers 1).
//
// Pools are safe for concurrent use: any number of sessions (or HTTP request
// goroutines) may run kernels over one pool at once. Work is handed to
// background workers only when one is idle; under contention a caller simply
// runs its own morsels, so Run never blocks waiting for another caller's work
// to finish and nested use cannot deadlock.
type Pool struct {
	workers int
	tasks   chan func()
	done    chan struct{}
	once    sync.Once

	tasksExecuted    atomic.Uint64
	morselsProcessed atomic.Uint64
	cutoffHits       atomic.Uint64
	helperHandoffs   atomic.Uint64
	helperRejections atomic.Uint64
	queueWaitNs      atomic.Uint64
}

// NewPool builds a pool with the given parallelism; workers <= 0 means
// GOMAXPROCS. Close releases the background goroutines when the pool is no
// longer needed (tests); the process-wide DefaultPool is never closed.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan func()),
		done:    make(chan struct{}),
	}
	for i := 0; i < workers-1; i++ {
		go p.worker()
	}
	return p
}

var defaultPool struct {
	once sync.Once
	p    *Pool
}

// DefaultPool returns the process-wide shared pool, sized by GOMAXPROCS and
// built on first use. Tables without an explicit SetPool execute on it.
func DefaultPool() *Pool {
	defaultPool.once.Do(func() { defaultPool.p = NewPool(0) })
	return defaultPool.p
}

// Workers returns the pool's parallelism (including the calling goroutine).
func (p *Pool) Workers() int { return p.workers }

// Stats returns a snapshot of the pool's cumulative counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:              p.workers,
		TasksExecuted:        p.tasksExecuted.Load(),
		MorselsProcessed:     p.morselsProcessed.Load(),
		SequentialCutoffHits: p.cutoffHits.Load(),
		HelperHandoffs:       p.helperHandoffs.Load(),
		HelperRejections:     p.helperRejections.Load(),
		QueueWaitNs:          p.queueWaitNs.Load(),
	}
}

// Close stops the pool's background workers. Runs in flight finish (the
// calling goroutine drains remaining morsels itself); later Runs execute
// sequentially on their callers.
func (p *Pool) Close() { p.once.Do(func() { close(p.done) }) }

func (p *Pool) worker() {
	for {
		select {
		case fn := <-p.tasks:
			p.tasksExecuted.Add(1)
			fn()
		case <-p.done:
			return
		}
	}
}

// Run executes fn(i) for every i in [0, n), distributing the iterations over
// the pool. The calling goroutine always participates; up to Workers()-1 idle
// background workers join it. Run returns when every iteration has finished.
// Iterations must be independent (they run concurrently, in no particular
// order); determinism of results is the callers' responsibility and is
// achieved by writing to disjoint or order-merged outputs.
func (p *Pool) Run(n int, fn func(i int)) { p.runLanes(n, func(_, i int) { fn(i) }) }

// runLanes is Run, also passing the lane that runs iteration i: 0 for the
// calling goroutine, 1 to Workers()-1 for helpers. A lane runs one iteration
// at a time, so state indexed by lane needs no lock.
func (p *Pool) runLanes(n int, fn func(lane, i int)) {
	if n <= 0 {
		return
	}
	body := func(lane, i int) {
		p.morselsProcessed.Add(1)
		fn(lane, i)
	}
	if n == 1 || p.workers == 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	var next atomic.Int64
	loop := func(lane int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			body(lane, i)
		}
	}
	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	helpers := p.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	for lane := 1; lane <= helpers; lane++ {
		wg.Add(1)
		// handedAt is written before the channel send and read by the worker
		// after the receive, so the send's happens-before edge covers it.
		handedAt := time.Now()
		helper := func() {
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
				wg.Done()
			}()
			if wait := time.Since(handedAt); wait > 0 {
				p.queueWaitNs.Add(uint64(wait.Nanoseconds()))
			}
			loop(lane)
		}
		// Hand the helper to an idle worker; if none is free (other callers
		// own them right now), this caller simply does the work itself.
		select {
		case p.tasks <- helper:
			p.helperHandoffs.Add(1)
		case <-p.done:
			wg.Done()
		default:
			p.helperRejections.Add(1)
			wg.Done()
		}
	}
	loop(0)
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}

// chunks returns how many chunk-sized pieces cover n items.
func chunks(n, chunk int) int { return (n + chunk - 1) / chunk }

// runCounted splits [0, n) into chunk-aligned ranges, runs fn over each —
// on the pool when there is more than one chunk — and returns the sum of the
// per-range counts, accumulated in range order. fn must only touch state
// belonging to its range; the count it returns is merged by the caller.
func runCounted(p *Pool, n, chunk int, fn func(lo, hi int) int) int {
	if n <= 0 {
		return 0
	}
	m := chunks(n, chunk)
	if m <= 1 || p.workers == 1 {
		p.cutoffHits.Add(1)
		return fn(0, n)
	}
	counts := make([]int, m)
	p.Run(m, func(i int) {
		lo := i * chunk
		hi := min(lo+chunk, n)
		counts[i] = fn(lo, hi)
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// reduceInts tallies the n rows, morsel by morsel, into a width-sized result
// (per-code counts, per-bin counts, cross-tabs). Each lane that draws a
// morsel counts into its own accumulator, the caller's being the result, and
// the helpers' are added in after the pool drains: integer sums do not depend
// on order, so the result is bit-identical on any pool, and memory is at most
// Workers() accumulators however many morsels the rows span.
func reduceInts(p *Pool, n, width int, fn func(lo, hi int, acc []int)) []int {
	acc := make([]int, width)
	if n <= 0 {
		return acc
	}
	m := chunks(n, morselRows)
	if m <= 1 || p.workers == 1 {
		p.cutoffHits.Add(1)
		fn(0, n, acc)
		return acc
	}
	lanes := make([][]int, p.workers)
	lanes[0] = acc
	p.runLanes(m, func(lane, i int) {
		if lanes[lane] == nil {
			lanes[lane] = make([]int, width)
		}
		lo := i * morselRows
		fn(lo, min(lo+morselRows, n), lanes[lane])
	})
	for _, part := range lanes[1:] {
		for k, v := range part {
			acc[k] += v
		}
	}
	return acc
}

// fillSelection builds a Selection over the table's rows by running fill over
// word-aligned row ranges — in parallel above the morsel cutoff. fill sets
// bits only within [lo, hi) (lo is always word-aligned, so morsels write
// disjoint bitmap words and no merge step exists) and returns how many bits it
// set; the per-morsel counts are summed in morsel order into the selection's
// cached count.
func (t *Table) fillSelection(fill func(sel *Selection, lo, hi int) int) *Selection {
	sel := t.newSel()
	sel.count = runCounted(sel.pool, t.rows, morselRows, func(lo, hi int) int {
		return fill(sel, lo, hi)
	})
	return sel
}
