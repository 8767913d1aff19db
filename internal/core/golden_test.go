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
// can. They were recorded at the commit before the single-kernel refactor
// of internal/core, which reordered no floating-point operation, and must
// only change with a deliberate, explained numerical change to the path
// concerned.
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
			"6a5e418154d4ef88b52607de03bc628276db83927ba14374054130b5ac057efc"},
		{"DenseRows", Options{denseRows: true},
			"6ea9d2da4be1feb3afa71e30658db7337103fa7e26eeecc7fbad9719d02e1c2a"},
		{"Candidates", Options{Candidates: 3},
			"abc4c707e99ba2bc4656e4ceb06e60a62b40266bcdfd44245c8f0eaac02cf438"},
		{"FastMath", Options{FastMath: true},
			"f12052af69a442adeb1fc3af1910a1544e26face4a5055e12aad1b800657abbb"},
		{"Shards", Options{Shards: 2},
			"ee68ebe2072e84e98cacda9f23de6a1e73d33d0456b395f7b9250e6ee1e4a3d3"},
		{"Shards+Candidates+FastMath", Options{Shards: 2, Candidates: 3, FastMath: true},
			"ed38f43d5082605e7502257d7ca92f6197c06a1b42d5b6cf4994b37c024b5807"},
		// The incremental rows run the gate loose enough (and the sharded
		// row its coordination tolerances loose enough to converge) that
		// slots commit a mix of frozen and re-admitted users.
		{"Incremental", Options{Incremental: true, IncrementalTol: 0.5},
			"775442fb28523b674fec9d1412c0f664670c02c0d6d680a9b198ff7d9de7fcda"},
		// Recorded with the one-line warm-dual fix applied to that commit
		// (slot 0's expansion rounds resume from the previous round's
		// multipliers, as on the plain Candidates path).
		{"Candidates+Incremental", Options{Candidates: 3, Incremental: true, IncrementalTol: 0.5},
			"d93d990d7cc676660f3439ec6a85e38a9a4ec47eefe728e8b4aba7c14abe3480"},
		{"Shards+Incremental", Options{Shards: 3, Incremental: true, IncrementalTol: 0.5,
			ShardPrimalTol: 1e-3, ShardDualTol: 0.1},
			"59ecdbfb9fb3b5026d255935e155c02a42b218337e278f42d04b655599ba18b1"},
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
