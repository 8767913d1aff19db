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
// the inner solve's Schur complement, newton.go's dualStep): every slot
// meets the same stop rule in fewer outer iterations, so every iterate after
// the first such step differs. DenseRows, whose FISTA path never takes the
// step, again did not move.
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
			"0bfcf267bd21b2adb766d3fa99c4df784278f2479c9887c61ac7fdc643fd38d7"},
		{"DenseRows", Options{denseRows: true},
			"7e9f8fa3fbf0791784b97cacf9b43418fd521c9bdeb16454ded5a6c6f4989579"},
		{"Candidates", Options{Candidates: 3},
			"a0ba2559bfc6cf11ac644c60b22cd7b2f8135bcf13dfa615590c9a9a9ba7fbc3"},
		{"FastMath", Options{FastMath: true},
			"de2caf1ae22261d6859bbe379936d1ae1aa0562a93219c303cbcf1afb3f73ecf"},
		{"Shards", Options{Shards: 2},
			"22c6c83ce24dfa873e8292040afe48f85711d27ac2b4748946e365682d704603"},
		{"Shards+Candidates+FastMath", Options{Shards: 2, Candidates: 3, FastMath: true},
			"d2406008c1dbad0ae5cb76f8b059562a83fb52a1396c8f63f040d5ac9e7ec040"},
		// The incremental rows run the gate loose enough that slots commit
		// a mix of frozen and re-admitted users.
		{"Incremental", Options{Incremental: true, IncrementalTol: 0.5},
			"b74502de59214ad7898bdae14fcae53a01ccbc18d67101ea2aedfe383d7d88e1"},
		{"Candidates+Incremental", Options{Candidates: 3, Incremental: true, IncrementalTol: 0.5},
			"a7a2404170129954f6f5bbce73fcf643202ca86f8384e0d75c94e6558549854c"},
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
