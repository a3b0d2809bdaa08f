// Package parallel provides small helpers for data-parallel loops.
//
// All computationally heavy loops in this repository are expressed through
// this package so they scale with GOMAXPROCS and degrade gracefully to a
// plain serial loop on a single-core machine. Reductions go through a
// fixed-shape pairwise tree (TreeReduce) whose shape depends only on the
// input length, so non-associative folds — floating-point sums above all —
// are bitwise deterministic regardless of worker count or scheduling.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// WorkerPanic wraps a panic recovered inside a parallel worker goroutine: it
// carries the original panic value and the worker's stack at the point of
// panic. ForLimit re-raises it on the calling goroutine, so a crashing task
// surfaces where the loop was started — attributable and recoverable — while
// Stack preserves where it actually happened.
type WorkerPanic struct {
	Value any
	Stack []byte
}

// Error renders the original panic value and worker stack; WorkerPanic
// implements error so recover sites can handle it uniformly.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n\nworker stack:\n%s", p.Value, p.Stack)
}

// panicHook, when set, observes the first worker panic of each loop before
// it is re-raised (the flight recorder installs its dump here).
var panicHook atomic.Pointer[func(recovered any, stack []byte)]

// SetPanicHook installs fn to be called with the original panic value and
// worker stack whenever a parallel loop recovers a worker panic (before the
// panic is re-raised on the caller). One hook is process-wide; nil removes
// it. The hook must not panic.
func SetPanicHook(fn func(recovered any, stack []byte)) {
	if fn == nil {
		panicHook.Store(nil)
		return
	}
	panicHook.Store(&fn)
}

// wrapPanic wraps r in a WorkerPanic capturing the current stack, unless a
// nested parallel loop already wrapped it. Must run on the panicking
// goroutine so the stack is the one that failed.
func wrapPanic(r any) (p *WorkerPanic, wrapped bool) {
	if p, ok := r.(*WorkerPanic); ok {
		return p, false
	}
	return &WorkerPanic{Value: r, Stack: debug.Stack()}, true
}

// notifyPanicHook reports p to the installed hook, if any.
func notifyPanicHook(p *WorkerPanic) {
	if h := panicHook.Load(); h != nil {
		(*h)(p.Value, p.Stack)
	}
}

// For runs fn(i) for every i in [0, n), distributing iterations over up to
// GOMAXPROCS goroutines. It returns once all iterations completed. For small
// n or a single-core machine it runs serially with no goroutine overhead.
func For(n int, fn func(i int)) { ForLimit(n, 0, fn) }

// ForLimit is For with an explicit worker count: workers <= 0 selects
// GOMAXPROCS, workers == 1 runs serially on the calling goroutine, and any
// larger count spawns that many goroutines (capped at n). A count above
// GOMAXPROCS is honored — real goroutines still interleave on few cores,
// which is exactly what race and determinism tests need.
func ForLimit(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		serialLoop(n, fn)
		return
	}
	var next atomic.Int64
	var wp atomic.Pointer[WorkerPanic]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// First panic wins; losers are dropped (they raced the
					// same failure). Park the claim counter past n so the
					// surviving workers drain instead of running more tasks.
					p, fresh := wrapPanic(r)
					if wp.CompareAndSwap(nil, p) && fresh {
						notifyPanicHook(p)
					}
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if p := wp.Load(); p != nil {
		panic(p)
	}
}

// serialLoop runs the workers<=1 path. It captures panics exactly like the
// parallel path (hook notified, value wrapped in *WorkerPanic) so callers see
// identical failure behaviour regardless of worker count.
func serialLoop(n int, fn func(i int)) {
	defer func() {
		if r := recover(); r != nil {
			p, fresh := wrapPanic(r)
			if fresh {
				notifyPanicHook(p)
			}
			panic(p)
		}
	}()
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// ForBlocked runs fn(lo, hi) over contiguous index blocks covering [0, n).
// Useful when per-iteration work is tiny and cache locality matters.
func ForBlocked(n, block int, fn func(lo, hi int)) {
	if block <= 0 {
		block = 1
	}
	blocks := (n + block - 1) / block
	For(blocks, func(b int) {
		lo := b * block
		hi := lo + block
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// TreeReduce folds vals with a fixed-shape pairwise tree: adjacent pairs at
// stride 1, then 2, 4, … The fold shape is a pure function of len(vals), so
// non-associative reductions are deterministic across worker counts and
// runs. The slice is used as scratch (vals[0] ends up holding the result);
// callers that need the inputs afterwards must pass a copy. Reductions that
// mutate their first argument in place (e.g. tensor accumulation) may simply
// return it. Panics on an empty slice.
func TreeReduce[T any](vals []T, reduceFn func(a, b T) T) T {
	if len(vals) == 0 {
		panic("parallel: TreeReduce of empty slice")
	}
	for stride := 1; stride < len(vals); stride *= 2 {
		for i := 0; i+stride < len(vals); i += 2 * stride {
			vals[i] = reduceFn(vals[i], vals[i+stride])
		}
	}
	return vals[0]
}
