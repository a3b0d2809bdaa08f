package parallel

import (
	"strings"
	"sync/atomic"
	"testing"
)

// recoverWorkerPanic runs fn and returns the *WorkerPanic it panics with
// (nil if it returns normally). Fails the test if fn panics with anything
// else.
func recoverWorkerPanic(t *testing.T, fn func()) (wp *WorkerPanic) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		var ok bool
		if wp, ok = r.(*WorkerPanic); !ok {
			t.Fatalf("panic value %T, want *WorkerPanic", r)
		}
	}()
	fn()
	return nil
}

// TestForLimitPanicInjection: a panicking task must surface on the caller's
// goroutine as a *WorkerPanic carrying the original value and the worker's
// stack, for both the serial and the parallel path. Runs in -short mode so
// `make ci`'s race pass always covers it.
func TestForLimitPanicInjection(t *testing.T) {
	for _, workers := range []int{1, 4} {
		wp := recoverWorkerPanic(t, func() {
			ForLimit(64, workers, func(i int) {
				if i == 13 {
					panic("injected failure")
				}
			})
		})
		if wp == nil {
			t.Fatalf("workers=%d: injected panic did not surface", workers)
		}
		if wp.Value != "injected failure" {
			t.Fatalf("workers=%d: original panic value lost: %v", workers, wp.Value)
		}
		// The stack must be the worker's at the point of panic, i.e. contain
		// this test's task function, not just the re-panic site.
		if !strings.Contains(string(wp.Stack), "TestForLimitPanicInjection") {
			t.Fatalf("workers=%d: stack does not show the failing task:\n%s", workers, wp.Stack)
		}
		if !strings.Contains(wp.Error(), "injected failure") || !strings.Contains(wp.Error(), "worker stack:") {
			t.Fatalf("workers=%d: Error() rendering: %q", workers, wp.Error())
		}
	}
}

// TestPanicHookObservesFirstPanic: the process-wide hook sees exactly one
// panic per loop (first wins), with the original value and worker stack,
// before the panic reaches the caller.
func TestPanicHookObservesFirstPanic(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var calls atomic.Int64
		var hookValue atomic.Value
		SetPanicHook(func(recovered any, stack []byte) {
			calls.Add(1)
			hookValue.Store(recovered)
			if !strings.Contains(string(stack), "TestPanicHookObservesFirstPanic") {
				t.Errorf("hook stack does not show the failing task:\n%s", stack)
			}
		})
		// Leave no process-wide state behind for other tests.
		defer SetPanicHook(nil)

		wp := recoverWorkerPanic(t, func() {
			ForLimit(64, workers, func(i int) {
				panic("boom") // every task panics; only the first may reach the hook
			})
		})
		if wp == nil {
			t.Fatalf("workers=%d: panic did not surface", workers)
		}
		if got := calls.Load(); got != 1 {
			t.Fatalf("workers=%d: hook called %d times, want 1", workers, got)
		}
		if hookValue.Load() != "boom" {
			t.Fatalf("workers=%d: hook saw %v", workers, hookValue.Load())
		}
		SetPanicHook(nil)
	}
}

// TestNestedLoopPanicNotRewrapped: a WorkerPanic crossing an outer parallel
// loop keeps its original stack and does not re-fire the hook.
func TestNestedLoopPanicNotRewrapped(t *testing.T) {
	var calls atomic.Int64
	SetPanicHook(func(any, []byte) { calls.Add(1) })
	defer SetPanicHook(nil)

	wp := recoverWorkerPanic(t, func() {
		ForLimit(4, 2, func(i int) {
			ForLimit(4, 2, func(j int) {
				if i == 0 && j == 0 {
					panic("inner")
				}
			})
		})
	})
	if wp == nil || wp.Value != "inner" {
		t.Fatalf("nested panic lost: %+v", wp)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("hook called %d times across nested loops, want 1", got)
	}
}

// TestForLimitRecoversForNextLoop: after a panicking loop, the package is
// still usable — the next loop runs all iterations.
func TestForLimitRecoversForNextLoop(t *testing.T) {
	recoverWorkerPanic(t, func() {
		ForLimit(8, 4, func(i int) { panic("x") })
	})
	var hits atomic.Int64
	ForLimit(100, 4, func(i int) { hits.Add(1) })
	if hits.Load() != 100 {
		t.Fatalf("loop after panic ran %d/100 iterations", hits.Load())
	}
}
