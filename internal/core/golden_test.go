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
// four rows without Candidates or Shards.
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
			"da5b7b56285a983dffab6fd21d1067e94e76336f9639aecb37436d41de2808bb"},
		{"DenseRows", Options{denseRows: true},
			"7e9f8fa3fbf0791784b97cacf9b43418fd521c9bdeb16454ded5a6c6f4989579"},
		{"Candidates", Options{Candidates: 3},
			"3636a084165f77ceea7953f723422356ad6e87a24a94b958f1da92175108e22d"},
		{"FastMath", Options{FastMath: true},
			"704ffd070b6a432b48ccdbe0688c66467d09b447c68185e27e90a1060dbf0c00"},
		{"Shards", Options{Shards: 2},
			"ab90ea2e638538a4c8e310f7c7197cc9d3e8a9f402c87493699e040319b68031"},
		{"Shards+Candidates+FastMath", Options{Shards: 2, Candidates: 3, FastMath: true},
			"4e954f9a5c634f98975f602fc24ea59f60bd103a66390e7fcba2d6fe8ac4e966"},
		// The incremental rows run the gate loose enough (and the sharded
		// row its coordination tolerances loose enough to converge) that
		// slots commit a mix of frozen and re-admitted users.
		{"Incremental", Options{Incremental: true, IncrementalTol: 0.5},
			"623ad0a74e3258b7303c4fcdbd2680bb04cfb9a89132c3c0b1581a82956faa8c"},
		{"Candidates+Incremental", Options{Candidates: 3, Incremental: true, IncrementalTol: 0.5},
			"3751c7f2cad7eecd4836f1d454a60bbf00353d215c566b915df8e02f5e2e3f39"},
		{"Shards+Incremental", Options{Shards: 3, Incremental: true, IncrementalTol: 0.5,
			ShardPrimalTol: 1e-3, ShardDualTol: 0.1},
			"2bf35e27b6e049a2ce05da3ff502a4373ac7d6b403a44660e88e60d26e5eb4c1"},
	} {
		sched, err := NewOnlineApprox(in, tc.opts).Run()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := scheduleDigest(sched); got != tc.digest {
			t.Errorf("%s: schedule digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}
