// Command corpusgen regenerates the committed fuzz seed-corpus files, in
// the `go test fuzz v1` corpus format: real encoded instances (toy,
// generated, and Rome-derived) for FuzzInstanceDecode, the float64
// boundary operands for the fast-math differential fuzz
// FuzzFastMathVsStdlib, the decomposition boundary tuples for the
// sharded-path differential fuzz FuzzShardVsDense, and genuine session
// snapshots at several depths for FuzzSnapshotRoundTrip.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"edgealloc/internal/conform"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/serve"
	"edgealloc/internal/solver/shardrpc"
)

func main() {
	writeInstanceCorpus()
	writeFastMathCorpus()
	writeShardCorpus()
	writeIncrementalCorpus()
	writeSnapshotCorpus()
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

// writeSnapshotCorpus pins the session-snapshot codec boundaries for
// FuzzSnapshotRoundTrip: genuine snapshots taken from an in-process
// daemon at depth 0 (created, never advanced: header only), mid-horizon
// (records with warm duals and a partial dual record), and full horizon
// (done; the last record carries the conformance summary), over both a
// Rome-derived and a generator instance, plus near-valid documents that
// must be rejected cleanly (a version-1 JSON document, a wrong version,
// an id that escapes the directory, a torn last record and a flipped
// checksum byte — both fatal in a request body).
func writeSnapshotCorpus() {
	dir := filepath.Join("internal", "serve", "testdata", "fuzz", "FuzzSnapshotRoundTrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	srv := serve.New(serve.Config{})
	defer srv.Close()
	call := func(path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 300 {
			log.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	rome, _, err := scenario.Rome(scenario.Config{Users: 3, Horizon: 3, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	gen := conform.GenInstance(conform.GenConfig{Seed: 21, I: 3, J: 4, T: 4})
	seeds := map[string][]byte{}
	for _, d := range []struct {
		name  string
		in    *model.Instance
		slots int
	}{
		{"seed-rome-fresh", rome, 0},
		{"seed-rome-mid", rome, 2},
		{"seed-rome-done", rome, rome.T},
		{"seed-gen-mid", gen, 3},
	} {
		var inst bytes.Buffer
		if err := model.WriteInstance(&inst, d.in); err != nil {
			log.Fatalf("%s: %v", d.name, err)
		}
		create, _ := json.Marshal(map[string]any{"id": d.name, "instance": json.RawMessage(inst.Bytes())})
		call("/v1/sessions", create)
		for t := 0; t < d.slots; t++ {
			call("/v1/sessions/"+d.name+"/slots", []byte(`{}`))
		}
		seeds[d.name] = call("/v1/sessions/"+d.name+"/snapshot", nil)
	}
	mid := seeds["seed-rome-mid"]
	flipped := bytes.Clone(mid)
	flipped[len(flipped)-1] ^= 0x01
	seeds["seed-torn-tail"] = mid[:len(mid)-7]
	seeds["seed-bad-checksum"] = flipped
	seeds["seed-v1-document"] = []byte(`{"version":1,"id":"x","instance":{"I":1,"J":1,"T":1},"state":{"slot":0,"schedule":[]}}`)
	seeds["seed-bad-version"] = bytes.Replace(mid, []byte(`"version":3`), []byte(`"version":2`), 1)
	seeds["seed-path-escape"] = bytes.Replace(mid, []byte(`"id":"seed-rome-mid"`), []byte(`"id":"../escape"`), 1)
	for name, body := range seeds {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("corpus written to", dir)
}

func writeInstanceCorpus() {
	dir := filepath.Join("internal", "model", "testdata", "fuzz", "FuzzInstanceDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	rome, _, err := scenario.Rome(scenario.Config{Users: 4, Horizon: 3, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	seeds := map[string]*model.Instance{
		"seed-toy":       model.ToyExampleA(),
		"seed-rome":      rome,
		"seed-generated": conform.GenInstance(conform.GenConfig{Seed: 99, I: 4, J: 5, T: 3, Tight: true}),
	}
	for name, in := range seeds {
		var buf bytes.Buffer
		if err := model.WriteInstance(&buf, in); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", buf.String())
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	// Adversarial fragments: near-valid JSON that must be rejected cleanly.
	adversarial := map[string]string{
		"seed-unknown-field": `{"I":1,"J":1,"T":1,"Bogus":3}`,
		"seed-huge-number":   `{"I":1,"J":1,"T":1,"Workload":[1e308],"Capacity":[1e308]}`,
		"seed-negative-dims": `{"I":-1,"J":-1,"T":-1}`,
	}
	for name, body := range adversarial {
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

// writeIncrementalCorpus pins the churn boundaries of the incremental
// tier's differential fuzz FuzzIncrementalVsFull: 0% churn (everyone
// frozen — the soundness gate alone keeps the result honest under price
// drift), 100% churn (nothing freezes; the tier must degenerate to the
// plain candidate path), the single-user corner where one re-admission
// flips the whole program, a mid-churn multi-slot instance, and the
// tight-capacity regime where frozen flow dominates the residual RHS.
// Each file is (seed, I, J, T, churn%) in the generator-clamp encoding.
func writeIncrementalCorpus() {
	dir := filepath.Join("internal", "core", "testdata", "fuzz", "FuzzIncrementalVsFull")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	seeds := map[string][5]int64{
		"seed-zero-churn":  {41, 3, 4, 3, 0},
		"seed-full-churn":  {11, 2, 5, 3, 100},
		"seed-single-user": {97, 4, 1, 3, 50},
		"seed-mid-churn":   {7, 3, 5, 3, 35},
		"seed-tight-cap":   {20140212, 4, 5, 2, 20},
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
