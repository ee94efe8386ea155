package workload

import (
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"
)

// recoverPoint runs forEachPoint and returns the recovered *pointPanic
// (nil when no point panicked).
func recoverPoint(t *testing.T, points, workers int, work func(i int)) (pp *pointPanic) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			var ok bool
			pp, ok = v.(*pointPanic)
			if !ok {
				t.Fatalf("recovered %T, want *pointPanic", v)
			}
		}
	}()
	forEachPoint(points, workers, func(_ *worker, i int) { work(i) })
	return nil
}

func TestForEachPointPanicAnnotated(t *testing.T) {
	for _, workers := range []int{1, 4} {
		pp := recoverPoint(t, 8, workers, func(i int) {
			if i == 5 {
				panic("boom")
			}
		})
		if pp == nil {
			t.Fatalf("workers=%d: panic did not propagate", workers)
		}
		if pp.point != 5 {
			t.Errorf("workers=%d: point = %d, want 5", workers, pp.point)
		}
		msg := pp.Error()
		if !strings.Contains(msg, "sweep point 5") || !strings.Contains(msg, "boom") {
			t.Errorf("workers=%d: message %q lacks point index or cause", workers, msg)
		}
		if len(pp.stack) == 0 {
			t.Errorf("workers=%d: no stack captured", workers)
		}
	}
}

func TestForEachPointPanicRaisedOnce(t *testing.T) {
	// Every point panics; exactly one annotated panic must surface and
	// the pool must not deadlock.
	pp := recoverPoint(t, 16, 4, func(i int) { panic(i) })
	if pp == nil {
		t.Fatal("panic did not propagate")
	}
}

func TestForEachPointNoPanicRunsAll(t *testing.T) {
	var n atomic.Int64
	if pp := recoverPoint(t, 32, 4, func(i int) { n.Add(1) }); pp != nil {
		t.Fatalf("unexpected panic: %v", pp)
	}
	if n.Load() != 32 {
		t.Fatalf("ran %d points, want 32", n.Load())
	}
}

// ForEachPoint's callers never touch a worker, so a call must allocate
// less than one: its bookkeeping is a few closures, not a zeroed worker
// with its multicast workspace.
func TestForEachPointAllocatesNoWorker(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ForEachPoint(4, 1, func(int) {})
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if size := uint64(unsafe.Sizeof(worker{})); perCall >= size {
		t.Errorf("ForEachPoint allocates %d bytes per call, at least one %d-byte worker", perCall, size)
	}
}
