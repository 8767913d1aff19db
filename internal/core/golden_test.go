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
// that the reference path was left alone. The seven Newton rows were
// regenerated again when alm.Solve's multiplier update became second order
// once no row changes activity (a Newton step on the augmented dual through
// the inner solve's Schur complement, newton.go's dualStep), and once more
// when that step became the whole Newton-KKT step — the iterate moves with
// the multipliers, the step corrects what stationarity the inner solve left,
// and it is taken from the first outer iteration and on active sets the
// update has just changed while three outer iterations remain; DenseRows
// did not move either time. The DenseRows row left with the sparse-row path
// it pinned; the seven rows here did not move then.
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
			"16941d9f5695d2de9a1e55faa3cd80a155e43d2dc742dd470c7d9b8a904dd55d"},
		{"Candidates", Options{Candidates: 3},
			"b8c00f32479643d6566290091749beefeeef41f107ed1ba36a3038064881ab59"},
		{"FastMath", Options{FastMath: true},
			"2fd94ee23ce6fe5b005a1f7fc1d4769e2bf80ec3117606cf63b80cb20a876e48"},
		{"Shards", Options{Shards: 2},
			"1c1ed9c69820efbd7b48f07c12f7163bd8c98a3d3af120f5606d5cdb52801c71"},
		{"Shards+Candidates+FastMath", Options{Shards: 2, Candidates: 3, FastMath: true},
			"47e00d10a47e03cf88e5af25ca21d438f09515a442fa52493b38a41dbf13de65"},
		// The incremental rows run the gate loose enough that slots commit
		// a mix of frozen and re-admitted users.
		{"Incremental", Options{Incremental: true, IncrementalTol: 0.5},
			"94c86134dfa7f66fcd050ea3576b778cedffa359a19094fa879aef7e38ab868d"},
		{"Candidates+Incremental", Options{Candidates: 3, Incremental: true, IncrementalTol: 0.5},
			"3ea27d8feb8db8264e1aaa213d8df0e67800a81a46d84ac6f47247542d5d8b62"},
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
