package shardrpc

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed seed corpus from its generator")

// TestSeedCorpusCurrent regenerates FuzzShardRPCCodec's committed seed
// corpus in memory and requires the files to match it byte for byte: a
// full BlockSpec with awkward floats (ties, subnormals, shortest-repr edge
// cases the encoder must round-trip bit-exactly), the empty-block corner
// (NJ = 0, every packed slice empty), the other three document kinds, and
// near-valid envelopes that Validate must reject cleanly. `go test -run
// TestSeedCorpusCurrent -update` rewrites them.
func TestSeedCorpusCurrent(t *testing.T) {
	spec := &BlockSpec{
		ID: "corpus-b0", Slot: 3, Gen: 2, NI: 2, NJ: 3, Eps2: 1e-6,
		FastMath: true,
		RowPtr:   []int{0, 2, 4},
		Cols:     []int{0, 1, 1, 2},
		Coef:     []float64{0.1 + 0.2, math.Nextafter(1, 2), -7.25, 1e-300},
		Prev:     []float64{0.5, 0, math.SmallestNonzeroFloat64, 2},
		MgFac:    []float64{1, math.Sqrt2, 3, 4},
		Warm:     []float64{0.25, 0.25, 0.5, 0},
		Theta:    []float64{0, -1.5, math.Pi},
		Demand:   []float64{1, 2, 0.75},
		Solver: SolverOptions{MaxOuter: 4, InnerIters: 50, Penalty: 8,
			FeasTol: 1e-7, ObjTol: 1e-9, DualTol: 1e-6},
	}
	empty := &BlockSpec{
		ID: "corpus-empty", NI: 2, NJ: 0, Eps2: 0.01,
		RowPtr: []int{0, 0, 0},
		Solver: SolverOptions{MaxOuter: 1, InnerIters: 1, FeasTol: 1e-6},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzShardRPCCodec")
	for name, body := range map[string][]byte{
		"seed-spec":       EncodeBlockSpec(spec),
		"seed-spec-empty": EncodeBlockSpec(empty),
		"seed-solve-req": EncodeSolveRequest(&SolveRequest{
			ID: "corpus-b0", Slot: 3, Gen: 2, Rho: 16, Target: []float64{0.1 + 0.2, 1e-300}}),
		"seed-solve-resp": EncodeSolveResponse(&SolveResponse{
			Totals: []float64{math.Nextafter(2, 3), 0}, Outer: 3, Inner: 40}),
		"seed-state-resp": EncodeStateResponse(&StateResponse{
			X: []float64{0.5, math.SmallestNonzeroFloat64}, Theta: []float64{-0.125}}),
		"seed-bad-cols":  []byte(`{"id":"x","ni":1,"nj":1,"eps2":0.01,"rowPtr":[0,1],"cols":[9],"coef":[1],"prev":[0],"mgFac":[1],"warm":[0],"theta":[0],"demand":[1],"solver":{}}`),
		"seed-truncated": []byte(`{"id":"x","ni":2,"nj":`),
	} {
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body))
		path := filepath.Join(dir, name)
		if *update {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v (rewrite with -update)", name, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: the committed seed differs from its generator (rewrite with -update)", name)
		}
	}
}
