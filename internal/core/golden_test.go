package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
)

// goldenInstance is the fixed instance behind TestGoldenScheduleDigests: a
// 12-user Rome run whose Candidates=3 slots need several pricing rounds,
// with 25% churn so the incremental tiers both freeze and re-admit users.
func goldenInstance(t *testing.T) *model.Instance {
	t.Helper()
	in, _, err := scenario.Rome(scenario.Config{Users: 12, Horizon: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	withChurn(in, 0.25, rand.New(rand.NewSource(7)))
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

// scheduleDigest hashes the schedule's float64 bits, slot by slot.
func scheduleDigest(s model.Schedule) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range s {
		for _, v := range x.X {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenScheduleDigests pins the exact bits of every solve path's
// schedule on one fixed instance. The path-vs-path pins elsewhere cannot
// see a refactor that shifts both sides of a comparison; these digests
// can. They must only change with a deliberate, explained numerical change
// to the path concerned. The three Shards rows were last regenerated when
// the coordinator's z-step became a closed-form prox per cloud (it dropped
// its implied complement rows and its nested ALM solve, and an unpruned
// sharded run began slot 0 from the zero point); the six rows without
// Shards did not move then, which is the proof that deleting alm's
// complement kernel was bit-neutral. Every row was regenerated at once when
// the single program dropped its implied complement-capacity rows and
// alm.Solve began measuring progress on the σ residual (penalty growth on
// a σ stall once feasible — counted only across two above-tolerance σ and
// an inner solve that moved — and convergence at σ ≤ FeasTol with a
// settled objective), and the single programs over every pair began slot 0
// from the zero point instead of the transportation optimum: the first
// changes every single-program row, the second every row, the third the
// four rows without Candidates or Shards. The eight structured rows were
// regenerated when their inner solves became alm's projected Newton method
// (every iterate differs: a second-order step on the Lagrangian's diagonal-
// plus-group-rank Hessian instead of ~900 FISTA iterations per Rome slot,
// stopped on a projected-gradient norm); the DenseRows row — sparse rows,
// no curvature interface, still FISTA — did not move, which is the proof
// that the reference path was left alone.
func TestGoldenScheduleDigests(t *testing.T) {
	t.Parallel()
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other targets fuse multiply-adds")
	}
	in := goldenInstance(t)
	for _, tc := range []struct {
		name   string
		opts   Options
		digest string
	}{
		{"default", Options{},
			"68b70f20a34d47d0b293884175c249e0941c9e964ffd40dd0044ab674e264155"},
		{"DenseRows", Options{denseRows: true},
			"7e9f8fa3fbf0791784b97cacf9b43418fd521c9bdeb16454ded5a6c6f4989579"},
		{"Candidates", Options{Candidates: 3},
			"dde119670c0543a220befae4b39ef05533bf48b65e155d10a9d315fe025a814c"},
		{"FastMath", Options{FastMath: true},
			"dbe68fd5f4990363f6b647e6de76898cb6e1624e8c1b5a88e6824433054b2848"},
		{"Shards", Options{Shards: 2},
			"528f699d77f4369d049e98e85309f67dd3c1b9cb7713344ab770911411c3c1c9"},
		{"Shards+Candidates+FastMath", Options{Shards: 2, Candidates: 3, FastMath: true},
			"2ce506fa38cae35c17e9c5eb831bd4f6cbab6430bf302ea8da7095e024862c25"},
		// The incremental rows run the gate loose enough that slots commit
		// a mix of frozen and re-admitted users.
		{"Incremental", Options{Incremental: true, IncrementalTol: 0.5},
			"b00faa0a5736d90bd5508dc4ecb40dd97ebb52febfa91a94d43c30e0d3b972d3"},
		{"Candidates+Incremental", Options{Candidates: 3, Incremental: true, IncrementalTol: 0.5},
			"422cb36c1f0ea4072177a3fae6c03412376dcc58511680ca4b51b8c9f6e6dcfb"},
	} {
		alg := NewOnlineApprox(in, tc.opts)
		sched, err := alg.Run()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := scheduleDigest(sched); got != tc.digest {
			t.Errorf("%s: schedule digest %s, want %s", tc.name, got, tc.digest)
		}
		// The retired memo counters (StepDiag) stay zero on every path.
		if d := alg.LastStepDiag(); d.LogCacheHits != 0 || d.LogCacheMisses != 0 {
			t.Errorf("%s: LogCacheHits/Misses = %d/%d, want 0/0", tc.name, d.LogCacheHits, d.LogCacheMisses)
		}
	}
}
