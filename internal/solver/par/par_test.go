package par

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestEachCoversOnce checks that every index is visited exactly once for
// a spread of (workers, n) shapes, including workers > n.
func TestEachCoversOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			visits := make([]int32, n)
			Each(workers, n, func(i int) { atomic.AddInt32(&visits[i], 1) })
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

// TestEachSerialInline checks that workers <= 1 runs the indices in
// ascending order on the caller's goroutine.
func TestEachSerialInline(t *testing.T) {
	caller := goroutineID()
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		Each(workers, 50, func(i int) {
			if id := goroutineID(); id != caller {
				t.Errorf("workers=%d: index %d ran on goroutine %s, caller is %s", workers, i, id, caller)
			}
			order = append(order, i)
		})
		if len(order) != 50 {
			t.Fatalf("workers=%d: %d calls, want 50", workers, len(order))
		}
		for k, i := range order {
			if i != k {
				t.Fatalf("workers=%d: call %d ran index %d", workers, k, i)
			}
		}
	}
}

// goroutineID returns the running goroutine's ID as printed in the first
// line of its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}
