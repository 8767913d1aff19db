package baseline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"edgealloc/internal/model"
)

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

// TestGoldenScheduleDigests pins the exact bits of every structured-row
// baseline's schedule on one small Rome instance: the one-slot programs
// (greedy, proximal) and the T-slot offline program, alone and under the
// receding horizon. The structured rows these solve under FISTA are alm's
// CSR grid — T·I cloud rows over T·J users for the offline program — and
// the digests were recorded while that grid was still a dense multi-block
// layout, so they are the proof that the layout change moved no bit. They
// must only change with a deliberate, explained numerical change.
func TestGoldenScheduleDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other targets fuse multiply-adds")
	}
	in := smallRome(t, 5, 3, 13)
	for _, tc := range []struct {
		alg interface {
			Name() string
			Solve(*model.Instance) (model.Schedule, error)
		}
		digest string
	}{
		{&Greedy{},
			"b3fe94602894fa09a832e74848a62d429bf24793b21cc680436bc9bb1fd56282"},
		{&Proximal{},
			"932d89181824b09e9c22a2fc2031bb3427f6a9161bc83707b4745b93fede5d70"},
		{&Offline{},
			"15aaa451ecbd528ab5c5b534b40114ef187bd254bc20e2956ca11242691b1dbc"},
		// Re-recorded when a window began warm-starting its first slot at
		// the decision it follows and its multipliers at the previous
		// window's: total cost 49.0066770526 → 49.0066710924 (−1.2e-7
		// relative).
		{&Lookahead{Window: 2},
			"b58899a6dc285e113643189bce47a36ff1c60c65aab837c4387bbdc3333d16db"},
	} {
		sched, err := tc.alg.Solve(in)
		if err != nil {
			t.Errorf("%s: %v", tc.alg.Name(), err)
			continue
		}
		if got := scheduleDigest(sched); got != tc.digest {
			t.Errorf("%s: schedule digest %s, want %s", tc.alg.Name(), got, tc.digest)
		}
	}
}
