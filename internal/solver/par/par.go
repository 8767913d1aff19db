// Package par provides the deterministic fork-join primitive of the
// sharded slot: Each hands out single indices to whichever worker is
// idle, for uneven per-index work such as a sharded slot's blocks, whose
// solves differ by several times in one round. The experiment engine
// (internal/experiments) runs whole runs on it too.
//
// The contract: fn writes only slots indexed by its own index, and the
// caller reduces those slots sequentially in index order afterwards.
// Which goroutine ran which index then cannot reach the result, so the
// floating-point output is byte-identical for any worker count and any
// schedule.
package par

import (
	"sync"
	"sync/atomic"
)

// Each runs fn(i) for every i in [0, n) on min(workers, n) workers — the
// caller's goroutine and min(workers, n)−1 more — that pull the next
// unclaimed index from one shared counter until none is left, and returns
// when all calls finish. An idle worker always takes the next index, so
// uneven per-index costs do not leave a worker waiting on a chunk fixed
// in advance. With workers <= 1 the indices run inline, in ascending
// order, on the caller's goroutine. fn(i) must write only slots indexed
// by i (see the package contract).
func Each(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	pull := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			pull()
		}()
	}
	pull()
	wg.Wait()
}
