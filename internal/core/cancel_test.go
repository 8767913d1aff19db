package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"edgealloc/internal/model"
)

// countdownCtx is a context whose Err flips to context.Canceled after n
// polls. alm.Solve polls Err once per outer and once per inner iteration
// (a projected Newton step here), so the flip lands at an exact, reproducible point mid-solve —
// no timing races.
type countdownCtx struct {
	calls, n int
	done     chan struct{}
}

func newCountdownCtx(n int) *countdownCtx {
	return &countdownCtx{n: n, done: make(chan struct{})}
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return c.done }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

func allocsEqual(a, b model.Alloc) bool {
	if a.I != b.I || a.J != b.J || len(a.X) != len(b.X) {
		return false
	}
	for k := range a.X {
		if a.X[k] != b.X[k] {
			return false
		}
	}
	return true
}

// testCancellation drives one algorithm through a horizon, injecting
// cancelled solves before each slot past the first, and requires (a)
// every cancelled StepCtx to return a wrapped context.Canceled promptly
// and (b) the eventually-completed schedule to match the uncancelled
// reference bitwise — i.e. cancellation never perturbs the warm state.
//
// The early aborts can all land in a slot's first round, before anything
// was written. The last one lands at the slot's final poll, the reference
// slot's outer plus inner iteration count: past every round but the last,
// so after earlier rounds scattered into the spare decision grid, which
// the retry must bring level again. The retry reads that grid where a
// round warm-starts pairs admitted after the first, so on the paths that
// prune or freeze at least one slot must take three rounds, or the abort
// proves nothing.
func testCancellation(t *testing.T, in *model.Instance, opts Options) {
	t.Helper()
	ref := NewOnlineApprox(in, opts)
	want := make(model.Schedule, in.T)
	lastPoll := make([]int, in.T)
	scattered := 0
	for slot := range want {
		x, err := ref.Step(slot)
		if err != nil {
			t.Fatalf("reference slot %d: %v", slot, err)
		}
		want[slot] = x.Clone()
		d := ref.LastStepDiag()
		lastPoll[slot] = d.Outer + d.Inner - 1
		if slot > 0 && d.CandRounds > 2 {
			scattered++
		}
	}
	if opts.Shards == 0 && (opts.Candidates > 0 || opts.Incremental) && scattered == 0 {
		t.Fatal("no slot past the first solves three times; no abort lands where a scatter is read")
	}

	alg := NewOnlineApprox(in, opts)
	for slot := 0; slot < in.T; slot++ {
		if slot > 0 {
			// An already-cancelled context must abort before any work.
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := alg.StepCtx(cancelled, slot); !errors.Is(err, context.Canceled) {
				t.Fatalf("slot %d pre-cancelled: err = %v, want context.Canceled", slot, err)
			}
			// Mid-solve aborts at several poll depths: each must error and
			// leave the state retryable.
			for _, polls := range []int{1, 3, 7, lastPoll[slot]} {
				start := time.Now()
				_, err := alg.StepCtx(newCountdownCtx(polls), slot)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("slot %d cancel after %d polls: err = %v, want context.Canceled",
						slot, polls, err)
				}
				if elapsed := time.Since(start); elapsed > 10*time.Second {
					t.Fatalf("slot %d cancel after %d polls took %v, want prompt abort",
						slot, polls, elapsed)
				}
			}
			diag := alg.LastStepDiag()
			if diag.Slot != slot-1 {
				t.Fatalf("slot %d: diagnostics advanced to slot %d despite cancellation",
					slot, diag.Slot)
			}
		}
		got, err := alg.StepCtx(context.Background(), slot)
		if err != nil {
			t.Fatalf("slot %d after cancellations: %v", slot, err)
		}
		if !allocsEqual(got, want[slot]) {
			t.Errorf("slot %d decision differs from uncancelled reference after cancelled attempts", slot)
		}
	}
}

// TestStepCtxCancellationDense exercises the default path, over every pair.
func TestStepCtxCancellationDense(t *testing.T) {
	in := smallRandomInstance(rand.New(rand.NewSource(9)))
	testCancellation(t, in, Options{})
}

// TestStepCtxCancellationCandidates exercises the candidate-set path,
// whose per-slot solve spans pricing-expansion rounds (one of this
// instance's later slots takes three).
func TestStepCtxCancellationCandidates(t *testing.T) {
	in := smallRandomInstance(rand.New(rand.NewSource(344)))
	testCancellation(t, in, Options{Candidates: 2})
}

// TestStepCtxCancellationCandidatesIncremental exercises the composition
// that freezes users out of a ragged candidate program.
func TestStepCtxCancellationCandidatesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := smallRandomInstance(rng)
	withChurn(in, 0.3, rng)
	testCancellation(t, in, Options{Candidates: 2, Incremental: true, IncrementalTol: 1e-9})
}

// TestStepCtxOutOfOrderAfterCancel verifies the slot counter does not
// advance on a cancelled solve: the next slot is still the aborted one.
func TestStepCtxOutOfOrderAfterCancel(t *testing.T) {
	in := smallRandomInstance(rand.New(rand.NewSource(23)))
	alg := NewOnlineApprox(in, Options{})
	if _, err := alg.Step(0); err != nil {
		t.Fatalf("slot 0: %v", err)
	}
	if _, err := alg.StepCtx(newCountdownCtx(1), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled slot 1: err = %v, want context.Canceled", err)
	}
	if _, err := alg.Step(2); err == nil {
		t.Fatal("Step(2) succeeded after cancelled slot 1, want out-of-order error")
	}
	if _, err := alg.Step(1); err != nil {
		t.Fatalf("retrying slot 1: %v", err)
	}
}
