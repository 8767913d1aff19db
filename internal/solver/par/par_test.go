package par

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestBound(t *testing.T) {
	tests := []struct {
		workers, work, grain, want int
	}{
		{0, 1 << 20, 1024, 1}, // workers 0 = serial (opt-in only)
		{1, 1 << 20, 1024, 1}, // explicit serial
		{8, 100, 1024, 1},     // job below one grain
		{8, 2048, 1024, 2},    // two grains → two workers
		{8, 1 << 20, 1024, 8}, // plenty of work → full budget
		{4, 1 << 20, 0, 1},    // degenerate grain → serial
		{16, 10240, 1024, 10}, // capped by work/grain
	}
	for _, tt := range tests {
		if got := Bound(tt.workers, tt.work, tt.grain); got != tt.want {
			t.Errorf("Bound(%d, %d, %d) = %d, want %d",
				tt.workers, tt.work, tt.grain, got, tt.want)
		}
	}
}

// TestRangesCoversDisjointly checks that every index is visited exactly
// once for a spread of (workers, n) shapes, including workers > n.
func TestRangesCoversDisjointly(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			visits := make([]int32, n)
			Ranges(workers, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

// TestRangesChunksDeterministic pins the chunk boundaries to a pure
// function of (workers, n): per-chunk partial sums reduced in order must
// be bitwise identical across repeated runs and equal to the serial sum.
func TestRangesChunksDeterministic(t *testing.T) {
	const n = 1003
	x := make([]float64, n)
	for i := range x {
		x[i] = 1.0 / float64(i+3)
	}
	sum := func(workers int) float64 {
		// One slot per index: reduction order is index order regardless
		// of which goroutine filled the slot.
		part := make([]float64, n)
		Ranges(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				part[i] = x[i] * x[i]
			}
		})
		s := 0.0
		for _, v := range part {
			s += v
		}
		return s
	}
	want := sum(1)
	for _, w := range []int{2, 3, 8, 32} {
		if got := sum(w); got != want {
			t.Errorf("workers=%d: sum %g != serial %g", w, got, want)
		}
	}
}

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
