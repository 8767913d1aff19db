// Package par provides the deterministic fork-join primitives shared by
// the solver hot paths. Ranges runs a fixed, worker-count-independent
// partition of an index range into contiguous chunks concurrently — for
// uniform per-index work such as an objective's cloud rows. Each hands
// out single indices to whichever worker is idle — for uneven per-index
// work such as a sharded slot's blocks, whose solves differ by several
// times in one round.
//
// Both share one contract: fn writes only slots indexed by its own
// indices, and the caller reduces those slots sequentially in index order
// afterwards. Which goroutine ran which index then cannot reach the
// result, so the floating-point output is byte-identical for any worker
// count and any schedule — the same discipline the experiment engine
// (internal/experiments) established for whole runs, applied inside a
// single slot.
package par

import (
	"sync"
	"sync/atomic"
)

// Bound returns the effective worker count for a job of `work` abstract
// cost units given a requested worker budget and a minimum grain per
// worker. It returns 1 (serial) whenever the job is too small to amortize
// goroutine startup: parallelism is threshold-gated, never forced.
// workers <= 0 is treated as 1 (parallelism is strictly opt-in).
func Bound(workers, work, grain int) int {
	if workers <= 1 || grain <= 0 {
		return 1
	}
	if max := work / grain; workers > max {
		workers = max
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// Ranges splits [0, n) into exactly `workers` contiguous chunks whose
// sizes depend only on (n, workers) — never on scheduling — and runs
// fn(lo, hi) for each chunk on its own goroutine, returning when all
// chunks finish. fn must write only to slots indexed by its own range so
// chunks race on nothing. With workers <= 1 the single chunk runs inline
// on the caller's goroutine.
//
// Determinism contract: because the per-index computation and the chunk
// boundaries are functions of the inputs alone, and reductions are done
// by the caller in index order, results are byte-identical for any
// worker count.
func Ranges(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

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
