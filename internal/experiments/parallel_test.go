package experiments

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkersDeterminism is the regression guard for the parallel engine:
// the reproduced rows must be bit-identical whether the grid runs on one
// worker (the original sequential order) or many.
func TestWorkersDeterminism(t *testing.T) {
	base := Params{Users: 4, Horizon: 3, Reps: 2, Cases: 2, Seed: 91}

	seq := base
	seq.Workers = 1
	want, err := ByName("2", seq)
	if err != nil {
		t.Fatal(err)
	}

	par := base
	par.Workers = 4
	got, err := ByName("2", par)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Errorf("Workers:1 and Workers:4 disagree\nseq: %+v\npar: %+v", want.Rows, got.Rows)
	}
}

// TestForEachIndexPropagatesFirstError requires the lowest-index error on
// any worker count, however the later failing index races it, every index
// below it run, and none run after it on one worker.
func TestForEachIndexPropagatesFirstError(t *testing.T) {
	first, later := errors.New("index 17"), errors.New("index 18")
	for _, workers := range []int{1, 2, 4} {
		for range 20 {
			var ran [100]atomic.Bool
			err := forEachIndex(workers, len(ran), func(i int) error {
				ran[i].Store(true)
				switch i {
				case 17:
					time.Sleep(100 * time.Microsecond) // let index 18 fail first
					return first
				case 18:
					return later
				}
				return nil
			})
			if err != first {
				t.Fatalf("workers=%d: err = %v, want %v", workers, err, first)
			}
			for i := range 18 {
				if !ran[i].Load() {
					t.Fatalf("workers=%d: index %d below the failure skipped", workers, i)
				}
			}
			if workers == 1 && ran[18].Load() {
				t.Fatal("workers=1: index 18 ran after index 17 failed")
			}
		}
	}
}

func TestWorkersDefaultsToCPUs(t *testing.T) {
	if got := (Params{}).workers(); got < 1 {
		t.Errorf("default workers = %d, want ≥ 1", got)
	}
	if got := (Params{Workers: 7}).workers(); got != 7 {
		t.Errorf("explicit workers = %d, want 7", got)
	}
}
