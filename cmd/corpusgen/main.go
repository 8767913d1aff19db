// Command corpusgen regenerates committed fuzz seed-corpus files, in the
// `go test fuzz v1` corpus format: the float64 boundary operands for the
// fast-math differential fuzz FuzzFastMathVsStdlib, the decomposition
// boundary tuples for the sharded-path differential fuzz FuzzShardVsDense
// and the wire-codec boundaries for FuzzShardRPCCodec. The instance,
// snapshot and incremental-churn corpora are regenerated and checked by
// the TestSeedCorpusCurrent tests of internal/model, internal/serve and
// internal/core.
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"edgealloc/internal/solver/shardrpc"
)

func main() {
	writeFastMathCorpus()
	writeShardCorpus()
	writeShardRPCCorpus()
}

// writeShardRPCCorpus pins the wire-codec boundaries of the
// shard-worker protocol's byte-stability fuzz FuzzShardRPCCodec: a full
// BlockSpec with awkward floats (ties, subnormals, shortest-repr edge
// cases the encoder must round-trip bit-exactly), the empty-block corner
// (NJ = 0, every packed slice empty), the other three document kinds,
// and near-valid envelopes that Validate must reject cleanly.
func writeShardRPCCorpus() {
	dir := filepath.Join("internal", "solver", "shardrpc", "testdata", "fuzz", "FuzzShardRPCCodec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	spec := &shardrpc.BlockSpec{
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
		Solver: shardrpc.SolverOptions{MaxOuter: 4, InnerIters: 50, Penalty: 8,
			PenaltyGrowth: 5, FeasTol: 1e-7, ObjTol: 1e-9, DualTol: 1e-6},
	}
	empty := &shardrpc.BlockSpec{
		ID: "corpus-empty", NI: 2, NJ: 0, Eps2: 0.01,
		RowPtr: []int{0, 0, 0},
		Solver: shardrpc.SolverOptions{MaxOuter: 1, InnerIters: 1, FeasTol: 1e-6},
	}
	seeds := map[string][]byte{
		"seed-spec":       shardrpc.EncodeBlockSpec(spec),
		"seed-spec-empty": shardrpc.EncodeBlockSpec(empty),
		"seed-solve-req": shardrpc.EncodeSolveRequest(&shardrpc.SolveRequest{
			ID: "corpus-b0", Slot: 3, Gen: 2, Rho: 16, Target: []float64{0.1 + 0.2, 1e-300}}),
		"seed-solve-resp": shardrpc.EncodeSolveResponse(&shardrpc.SolveResponse{
			Totals: []float64{math.Nextafter(2, 3), 0}, Outer: 3, Inner: 40}),
		"seed-state-resp": shardrpc.EncodeStateResponse(&shardrpc.StateResponse{
			X: []float64{0.5, math.SmallestNonzeroFloat64}, Theta: []float64{-0.125}}),
		"seed-bad-cols":  []byte(`{"id":"x","ni":1,"nj":1,"eps2":0.01,"rowPtr":[0,1],"cols":[9],"coef":[1],"prev":[0],"mgFac":[1],"warm":[0],"theta":[0],"demand":[1],"solver":{}}`),
		"seed-truncated": []byte(`{"id":"x","ni":2,"nj":`),
	}
	for name, body := range seeds {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("corpus written to", dir)
}

// writeShardCorpus pins the decomposition boundaries of the sharded-path
// differential fuzz FuzzShardVsDense: the degenerate single-shard
// coordinator (pure overhead, must still match dense), shard counts past
// the user count (clamped to one user per shard, the raggedest split),
// the single-user/single-slot corners, and a mid-split multi-slot
// instance where consensus genuinely redistributes load. Each file is
// (seed, I, J, T, S) in the generator-clamp encoding the target spans.
func writeShardCorpus() {
	dir := filepath.Join("internal", "core", "testdata", "fuzz", "FuzzShardVsDense")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	seeds := map[string][5]int64{
		"seed-single-shard":   {41, 3, 4, 2, 1},
		"seed-user-per-shard": {11, 2, 3, 3, 9},
		"seed-single-user":    {97, 4, 1, 2, 2},
		"seed-single-slot":    {7, 3, 5, 1, 3},
		"seed-mid-split":      {20140212, 4, 5, 3, 2},
	}
	for name, v := range seeds {
		body := fmt.Sprintf("go test fuzz v1\nint64(%d)\nint(%d)\nint(%d)\nint(%d)\nint(%d)\n",
			v[0], v[1], v[2], v[3], v[4])
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("corpus written to", dir)
}

// writeFastMathCorpus pins the boundary operands of the batch log kernel:
// exact powers of two (where the reduction's exponent split lands on a
// bucket edge), the neighbors of 1 (where the log table pins c=1 against
// cancellation), subnormals and the extremes of the finite range, and the
// non-finite specials. Each file is the operand's bit pattern.
func writeFastMathCorpus() {
	dir := filepath.Join("internal", "numkernel", "testdata", "fuzz", "FuzzFastMathVsStdlib")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	seeds := map[string]uint64{
		"seed-one":           math.Float64bits(1),
		"seed-one-next":      math.Float64bits(math.Nextafter(1, 2)),
		"seed-one-prev":      math.Float64bits(math.Nextafter(1, 0)),
		"seed-sqrt2-over-2":  math.Float64bits(math.Sqrt2 / 2),
		"seed-pow2":          math.Float64bits(0x1p-30),
		"seed-min-subnormal": 1,
		"seed-min-normal":    math.Float64bits(0x1p-1022),
		"seed-max-float":     math.Float64bits(math.MaxFloat64),
		"seed-negative":      math.Float64bits(-1),
		"seed-inf-nan":       math.Float64bits(math.Inf(1)),
		"seed-neg-inf":       math.Float64bits(math.Inf(-1)),
	}
	for name, bits := range seeds {
		body := fmt.Sprintf("go test fuzz v1\nuint64(%d)\n", bits)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("corpus written to", dir)
}
