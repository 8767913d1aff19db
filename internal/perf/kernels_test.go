package perf

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"edgealloc/internal/core"
	"edgealloc/internal/mobility"
	"edgealloc/internal/model"
	"edgealloc/internal/numkernel"
	"edgealloc/internal/scenario"
	"edgealloc/internal/serve"
	"edgealloc/internal/solver/alm"
	"edgealloc/internal/solver/fista"
)

// Each kernel constructor does its set-up once and returns the operation
// one benchmark iteration (and one TestHotPathAllocs run) executes.

// kernel is one named micro-kernel operation and the allocation count
// TestHotPathAllocs pins it at.
type kernel struct {
	name   string
	op     func()
	allocs float64
}

// fistaDim is the variable count of the FISTA kernel — the I·J of a
// 15-cloud, 40-user slot problem.
const fistaDim = 600

// quadObjective is a strongly convex separable quadratic
// Σ c_k (x_k − a_k)², the cheapest representative objective: with
// near-free Evals, per-call allocation overhead dominates the
// measurement, which is exactly what these kernels track.
type quadObjective struct {
	c, a []float64
}

func (q *quadObjective) Eval(x, grad []float64) float64 {
	f := 0.0
	for k := range x {
		d := x[k] - q.a[k]
		f += q.c[k] * d * d
		if grad != nil {
			grad[k] = 2 * q.c[k] * d
		}
	}
	return f
}

func newQuad(n int) *quadObjective {
	q := &quadObjective{c: make([]float64, n), a: make([]float64, n)}
	for k := 0; k < n; k++ {
		// Deterministic, irregular coefficients; no RNG needed.
		q.c[k] = 1 + float64(k%7)/3
		q.a[k] = float64((k*2689+13)%100) / 25
	}
	return q
}

// fistaSolve is the FISTASolve kernel: a minimization over x ≥ 0 of
// a fixed quadratic reusing one workspace.
func fistaSolve(tb testing.TB) func() {
	q := newQuad(fistaDim)
	x0 := make([]float64, fistaDim)
	var ws fista.Workspace
	return func() {
		res, err := fista.Minimize(q, x0, fista.Options{
			MaxIters: 200, Workspace: &ws,
		})
		if err != nil {
			tb.Fatal(err)
		}
		if res.F < 0 {
			tb.Fatal("negative quadratic")
		}
	}
}

// almSolve is the ALMSolve kernel: a constrained solve of a quadratic
// under demand rows — a grid of n/rows clouds serving rows users, each
// user's column summing to at least 2.5 per cloud — reusing one workspace
// and warm-starting from the previous solution like the per-slot loops do.
func almSolve(tb testing.TB) func() {
	const n, rows = fistaDim, 40
	q := newQuad(n)
	per := n / rows
	g := &alm.Groups{I: per, J: rows, RowPtr: make([]int, per+1), Cols: make([]int, 0, n)}
	for i := 0; i < per; i++ {
		for r := 0; r < rows; r++ {
			g.Cols = append(g.Cols, r)
		}
		g.RowPtr[i+1] = len(g.Cols)
	}
	for r := 0; r < rows; r++ {
		g.Rows = append(g.Rows, alm.GroupRow{Kind: alm.GroupUserSum, Index: r, RHS: float64(per) * 2.5})
	}
	prob := &alm.Problem{Obj: q, N: n, Groups: g}
	var ws alm.Workspace
	opts := alm.Options{MaxOuter: 20, InnerIters: 300, FeasTol: 1e-6, Workspace: &ws}
	return func() {
		res, err := alm.Solve(prob, opts)
		if err != nil {
			tb.Fatal(err)
		}
		opts.WarmX = res.X
		opts.WarmDuals = res.Duals
	}
}

// stepKernel is a warm-Step kernel: per-slot Step calls of the paper's
// algorithm on a fixed instance — the steady-state hot path of an online
// deployment. Slot 0 (which builds the per-instance caches and, on the
// pruning paths, solves a transportation problem for its warm start)
// belongs to prime, which callers keep off the clock and off the count.
type stepKernel struct {
	tb   testing.TB
	in   *model.Instance
	opts core.Options
	alg  *core.OnlineApprox
	t    int // next slot to step
}

// newStepKernel is the OnlineApproxStep kernel: the default exact path on
// a Rome instance.
func newStepKernel(tb testing.TB) *stepKernel {
	in, _, err := scenario.Rome(scenario.Config{Users: 20, Horizon: 8, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	k := &stepKernel{tb: tb, in: in, opts: core.Options{Solver: alm.Options{
		MaxOuter: 30, InnerIters: 400,
		FeasTol: 1e-6, DualTol: 1e-3, ObjTol: 1e-7, Penalty: 2}}}
	k.prime()
	return k
}

// prime starts a fresh horizon and runs its slot 0.
func (k *stepKernel) prime() {
	k.alg = core.NewOnlineApprox(k.in, k.opts)
	k.t = 0
	k.step()
}

// bench runs warm Steps on the clock, re-priming off it when the horizon
// runs out.
func (k *stepKernel) bench(b *testing.B) {
	benchOp(b, func() {
		if k.t == k.in.T {
			b.StopTimer()
			k.prime()
			b.StartTimer()
		}
		k.step()
	})
}

func (k *stepKernel) step() {
	if _, err := k.alg.Step(k.t); err != nil {
		k.tb.Fatal(err)
	}
	k.t++
}

// churnInstance is a synthetic deployment at the flagship geometry with
// controlled mobility: clouds on a 100×100 km plane with quadratic
// distance-derived delays, capacity headroom of 35–115%, operation prices
// on a ±2% per-slot walk, and exactly ⌈churn·J⌉ users re-attaching per
// slot (mobility.Churn). The pre-horizon placement is greedy — each user
// whole on its slot-0 cloud while capacity lasts, then on the nearest
// cloud with room — so slot 0 starts mid-stream.
func churnInstance(tb testing.TB, I, J, T int, churn float64, seed int64) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &model.Instance{I: I, J: J, T: T, WOp: 1, WSq: 1, WRc: 1, WMg: 1}
	xs, ys := make([]float64, I), make([]float64, I)
	for i := range xs {
		xs[i], ys[i] = 100*rng.Float64(), 100*rng.Float64()
	}
	in.InterDelay = make([][]float64, I)
	for i := range in.InterDelay {
		in.InterDelay[i] = make([]float64, I)
		for k := range in.InterDelay[i] {
			dx, dy := xs[i]-xs[k], ys[i]-ys[k]
			in.InterDelay[i][k] = 0.04 * (dx*dx + dy*dy) / 100
		}
	}
	in.Workload = make([]float64, J)
	total := 0.0
	for j := range in.Workload {
		in.Workload[j] = 0.5 + 2*rng.Float64()
		total += in.Workload[j]
	}
	in.Capacity = make([]float64, I)
	in.ReconfPrice = make([]float64, I)
	in.MigOutPrice = make([]float64, I)
	in.MigInPrice = make([]float64, I)
	in.OpPrice = make([][]float64, T)
	for t := range in.OpPrice {
		in.OpPrice[t] = make([]float64, I)
	}
	for i := 0; i < I; i++ {
		in.Capacity[i] = total / float64(I) * (1.35 + 0.8*rng.Float64())
		in.ReconfPrice[i] = 0.5 + rng.Float64()
		in.MigOutPrice[i] = 0.2 + 0.6*rng.Float64()
		in.MigInPrice[i] = 0.2 + 0.6*rng.Float64()
		in.OpPrice[0][i] = 0.5 + rng.Float64()
		for t := 1; t < T; t++ {
			in.OpPrice[t][i] = in.OpPrice[t-1][i] * (1 + 0.02*(2*rng.Float64()-1))
		}
	}
	tr, err := mobility.Churn(mobility.ChurnConfig{Users: J, Horizon: T, Stations: I, Rate: churn}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	in.Attach, in.AccessDelay = tr.Attach, tr.AccessKm

	free := append([]float64(nil), in.Capacity...)
	init := model.NewAlloc(I, J)
	for j, at := range in.Attach[0] {
		for need := in.Workload[j]; need > 0; {
			best := at
			if free[at] <= 0 {
				best = -1
				for i := 0; i < I; i++ {
					if free[i] > 0 && (best < 0 || in.InterDelay[at][i] < in.InterDelay[at][best]) {
						best = i
					}
				}
			}
			amt := math.Min(need, free[best])
			init.X[best*J+j] += amt
			free[best] -= amt
			need -= amt
		}
	}
	in.Init = &init
	if err := in.Validate(); err != nil {
		tb.Fatal(err)
	}
	return in
}

// newIncrementalKernel is the IncrementalStep kernel: warm Steps of the
// incremental tier (Candidates 4, on a deployment budget) at I=50, J=5000
// with 1% of the users moving per slot — fifty columns to re-solve beside
// a 250,000-entry grid, so what the kernel shows is the cost of everything
// around the solve. prime runs the cold slot 0, the one full solve of the
// horizon.
func newIncrementalKernel(tb testing.TB) *stepKernel {
	k := &stepKernel{tb: tb, in: churnInstance(tb, 50, 5000, 12, 0.01, 20140212),
		opts: core.Options{
			Solver: alm.Options{MaxOuter: 12, InnerIters: 100,
				FeasTol: 1e-7, DualTol: 5e-2, ObjTol: 1e-2, Penalty: 2},
			Candidates: 4, CandidateTol: 1, Incremental: true, IncrementalTol: 1,
		}}
	k.prime()
	return k
}

// newShardKernel is the ShardStep kernel: warm Steps of the sharded tier
// (four user shards under the sharing-ADMM coordinator, Candidates 4,
// FastMath, on the flagship's per-block budget) at I=15, J=600 with 30% of
// the users moving per slot, on two workers — the blocks' preparation,
// solves and pricing are dispatched over them. It has no allocation pin:
// those passes start goroutines, whose allocations the runtime decides.
func newShardKernel(tb testing.TB) *stepKernel {
	k := &stepKernel{tb: tb, in: churnInstance(tb, 15, 600, 12, 0.30, 20140212),
		opts: core.Options{
			Solver: alm.Options{MaxOuter: 3, InnerIters: 60,
				FeasTol: 1e-5, DualTol: 1e-2, ObjTol: 1e-8, Penalty: 2, Workers: 2},
			Candidates: 4, CandidateTol: 1,
			Shards: 4, ShardRho: 16, ShardMaxIters: 12,
			ShardPrimalTol: 1e-4, ShardDualTol: 5e-2,
			FastMath: true,
		}}
	k.prime()
	return k
}

// newCertRun is a finished run at serve_stream's geometry (I=25, J=1000, 5%
// of the users moving per slot, the incremental tier over candidate sets,
// on a deployment budget) over T slots: what a session holds when its last
// slot asks for the certificate.
func newCertRun(tb testing.TB, T int) *core.OnlineApprox {
	in := churnInstance(tb, 25, 1000, T, 0.05, 20140212)
	alg := core.NewOnlineApprox(in, core.Options{
		Solver: alm.Options{MaxOuter: 12, InnerIters: 100,
			FeasTol: 1e-7, DualTol: 5e-2, ObjTol: 1e-2, Penalty: 2},
		Candidates: 4, CandidateTol: 1, Incremental: true, IncrementalTol: 1,
	})
	if _, err := alg.Run(); err != nil {
		tb.Fatal(err)
	}
	return alg
}

// certify is the Certificate kernel's operation on a finished run.
func certify(tb testing.TB, alg *core.OnlineApprox) func() {
	return func() {
		if _, err := alg.Certificate(); err != nil {
			tb.Fatal(err)
		}
	}
}

// serveKernel is the ServeSlot kernel: one POST …/slots per operation
// through serve.Server's handler, on a streaming session at serve_stream's
// geometry (I=25, J=1000, 5% of the users moving per slot, the incremental
// tier over candidate sets) with every slot appended to its snapshot log.
// Creating a session and its cold slot 0 belong to prime, off the clock.
type serveKernel struct {
	tb     testing.TB
	h      http.Handler
	in     *model.Instance
	create []byte
	slots  [][]byte
	path   string
	t      int
}

func newServeKernel(tb testing.TB, T int) *serveKernel {
	srv := serve.New(serve.Config{SnapshotDir: tb.TempDir(), Autosnapshot: true})
	tb.Cleanup(func() { _ = srv.Close() })
	k := &serveKernel{tb: tb, h: srv.Handler(), in: churnInstance(tb, 25, 1000, T, 0.05, 20140212)}
	skeleton := *k.in
	skeleton.T, skeleton.OpPrice, skeleton.Attach, skeleton.AccessDelay = 0, nil, nil, nil
	var err error
	k.create, err = json.Marshal(map[string]any{"instance": &skeleton, "horizon": k.in.T, "options": map[string]any{
		"candidates": 4, "candidateTol": 1, "incremental": true, "incrementalTol": 1,
		"maxOuter": 12, "innerIters": 100, "feasTol": 1e-7, "dualTol": 5e-2, "objTol": 1e-2, "penalty": 2,
	}})
	if err != nil {
		tb.Fatal(err)
	}
	for t := 0; t < k.in.T; t++ {
		body, err := json.Marshal(map[string]any{"slot": t,
			"opPrice": k.in.OpPrice[t], "attach": k.in.Attach[t], "accessDelay": k.in.AccessDelay[t]})
		if err != nil {
			tb.Fatal(err)
		}
		k.slots = append(k.slots, body)
	}
	k.prime()
	return k
}

// do serves one request and fails unless it answers want.
func (k *serveKernel) do(method, path string, body []byte, want int) []byte {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		k.tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	k.h.ServeHTTP(rec, req)
	if rec.Code != want {
		k.tb.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// prime replaces the session with a fresh one and posts its slot 0.
func (k *serveKernel) prime() {
	if k.path != "" {
		k.do(http.MethodDelete, k.path, nil, http.StatusNoContent)
	}
	var created struct{ ID string }
	if err := json.Unmarshal(k.do(http.MethodPost, "/v1/sessions", k.create, http.StatusCreated), &created); err != nil {
		k.tb.Fatal(err)
	}
	k.path, k.t = "/v1/sessions/"+created.ID, 0
	k.post()
}

func (k *serveKernel) post() {
	k.do(http.MethodPost, k.path+"/slots", k.slots[k.t], http.StatusOK)
	k.t++
}

func (k *serveKernel) bench(b *testing.B) {
	benchOp(b, func() {
		if k.t == k.in.T {
			b.StopTimer()
			k.prime()
			b.StartTimer()
		}
		k.post()
	})
}

// restoreKernel is the Restore kernel: a session of serveKernel's run to
// its horizon of T slots, snapshotted and deleted off the clock; each
// operation restores it from the snapshot through the server's POST
// /v1/sessions/restore and deletes it again — what a migration, an
// eviction or the benchmark's close-out gate pays per session.
func restoreKernel(tb testing.TB, T int) (op func(), grid uint64) {
	k := newServeKernel(tb, T)
	for k.t < T {
		k.post()
	}
	doc := bytes.Clone(k.do(http.MethodPost, k.path+"/snapshot", nil, http.StatusOK))
	k.do(http.MethodDelete, k.path, nil, http.StatusNoContent)
	return func() {
		k.do(http.MethodPost, "/v1/sessions/restore", doc, http.StatusCreated)
		k.do(http.MethodDelete, k.path, nil, http.StatusNoContent)
	}, uint64(8 * k.in.I * k.in.J)
}

// The NumKernel family runs the batch log kernel behind
// core.Options.FastMath in isolation, over one cache-resident buffer of
// solver-typical operands. LogStdlib is the per-element math.Log loop
// the batch kernel replaces, so LogStdlib/LogBatch is the raw
// per-element win before any solver-level effects (reciprocal
// precompute, cache-traffic elimination) stack on top.

// numKernelLen is the element count of every NumKernel buffer: a J-row
// of the flagship size, comfortably L1/L2-resident so the kernels
// measure arithmetic throughput, not memory.
const numKernelLen = 4096

const numKernelSeed = 20140212

// numKernels lists the NumKernel family by sub-benchmark name.
func numKernels() []kernel {
	// Solver-typical log operands: migration ratios (x+ε₂)/(x'+ε₂)
	// concentrate within a few decades of 1.
	rng := rand.New(rand.NewSource(numKernelSeed))
	ratios := make([]float64, numKernelLen)
	for i := range ratios {
		ratios[i] = math.Exp(6 * (rng.Float64() - 0.5))
	}
	dst := make([]float64, numKernelLen)
	return []kernel{
		{"LogBatch", func() { numkernel.LogBatch(dst, ratios) }, 0},
		{"LogStdlib", func() {
			for i, x := range ratios {
				dst[i] = math.Log(x)
			}
		}, 0},
	}
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op()
	}
}

func BenchmarkFISTASolve(b *testing.B) { benchOp(b, fistaSolve(b)) }
func BenchmarkALMSolve(b *testing.B)   { benchOp(b, almSolve(b)) }

func BenchmarkOnlineApproxStep(b *testing.B) { newStepKernel(b).bench(b) }
func BenchmarkIncrementalStep(b *testing.B)  { newIncrementalKernel(b).bench(b) }
func BenchmarkShardStep(b *testing.B)        { newShardKernel(b).bench(b) }
func BenchmarkServeSlot(b *testing.B)        { newServeKernel(b, 10).bench(b) }

// BenchmarkFreezeGate times the incremental tier's per-slot passes over
// its frozen users one by one, on IncrementalStep's run after four slots:
// a gate round (the column minima over each attachment's candidate clouds
// and the support test), the frozen-flow walk of the support index, and
// the commit's carried totals summed from the index.
func BenchmarkFreezeGate(b *testing.B) {
	k := newIncrementalKernel(b)
	for k.t < 4 {
		k.step()
	}
	gate, flow, totals := k.alg.FreezePasses()
	if gate == nil {
		b.Fatal("no support index after a slot that froze users")
	}
	b.Run("Gate", func(b *testing.B) { benchOp(b, gate) })
	b.Run("FrozenFlow", func(b *testing.B) { benchOp(b, flow) })
	b.Run("CommitTotals", func(b *testing.B) { benchOp(b, totals) })
}

// BenchmarkRestore restores a finished 28-slot session at serve_stream's
// geometry from its snapshot through the server's handler.
func BenchmarkRestore(b *testing.B) {
	op, _ := restoreKernel(b, 28)
	benchOp(b, op)
}

// BenchmarkCertificate is the dual certificate of a finished 28-slot run at
// serve_stream's geometry, which a session computes in its last slot.
func BenchmarkCertificate(b *testing.B) { benchOp(b, certify(b, newCertRun(b, 28))) }

// BenchmarkNumKernel exposes the fast-math kernel family; use
// -bench 'NumKernel/LogBatch$' to pick one kernel.
func BenchmarkNumKernel(b *testing.B) {
	for _, k := range numKernels() {
		b.Run(k.name, func(b *testing.B) { benchOp(b, k.op) })
	}
}

// TestHotPathAllocs pins the allocation count of one operation of every
// kernel. The counts are deterministic, so they are today's values, not
// ceilings with slack: raise one only with a comment naming the
// toolchain in the CI matrix that differs. A warm Step allocates its
// decision-log record only: on the default path the decision grid itself,
// on the incremental tier the slot's written columns and their values (two
// small slices; the decision is assembled in a grid the tier keeps).
func TestHotPathAllocs(t *testing.T) {
	step, incr := newStepKernel(t), newIncrementalKernel(t)
	kernels := append([]kernel{
		{"OnlineApproxStep", step.step, 1},
		{"IncrementalStep", incr.step, 2},
		{"FISTASolve", fistaSolve(t), 0},
		{"ALMSolve", almSolve(t), 0},
	}, numKernels()...)
	// AllocsPerRun makes one uncounted warm-up call, which together with
	// slot 0 in prime leaves T−2 warm Steps of the shorter horizon to count.
	runs := step.in.T - 2
	for _, k := range kernels {
		if got := testing.AllocsPerRun(runs, k.op); got != k.allocs {
			t.Errorf("%s: %v allocs/op, pinned at %v", k.name, got, k.allocs)
		}
	}
	// The count cannot tell two small slices from a grid: a warm incremental
	// Step must also allocate under an eighth of one I×J grid, which a
	// per-slot copy of the decision would exceed eightfold. Three of the
	// horizon's slots are left to measure.
	grid := uint64(8 * incr.in.I * incr.in.J)
	if got := bytesPerRun(3, incr.step); got >= grid/8 {
		t.Errorf("IncrementalStep: %d bytes/op, want under %d (an eighth of the %d-byte decision grid)", got, grid/8, grid)
	}
	// A served slot is held to the same ceiling at its own geometry, so the
	// handler cannot come back to copying a grid per slot (the schedule it
	// once built to price and log the slot was one). Three warm-up posts let
	// the pooled body buffer and the session's record buffer reach their
	// size first; four slots are measured. They run on one P: sync.Pool
	// keeps a returned object in the private slot of the P that put it,
	// where a Get on another P cannot reach it, so a post the scheduler
	// moved between Ps — as it does on a loaded machine — would allocate
	// a second body buffer.
	if !raceEnabled {
		procs := runtime.GOMAXPROCS(1)
		srv := newServeKernel(t, 10)
		for k := 0; k < 3; k++ {
			srv.post()
		}
		grid = uint64(8 * srv.in.I * srv.in.J)
		if got := bytesPerRun(4, srv.post); got >= grid/8 {
			t.Errorf("ServeSlot: %d bytes/op, want under %d (an eighth of the %d-byte decision grid)", got, grid/8, grid)
		}
		runtime.GOMAXPROCS(procs)
	}
	// A restore allocates what the snapshot holds — the body, each slot's
	// inputs, duals and stored entries, the columns its log keeps — beside a
	// fixed cost for the instance and the solver state, and no grid per
	// slot: from a 6- to a 28-slot session its bytes per operation grow by
	// under one and a half decision grids a slot (0.93 today). Decoding
	// each record into a grid, or logging each restored slot whole, adds
	// one grid a slot; the restore that did both grew by 3.8.
	var restored [2]uint64
	for k, T := range []int{6, 28} {
		op, g := restoreKernel(t, T)
		restored[k], grid = bytesPerRun(4, op), g
	}
	if perSlot := float64(restored[1]-restored[0]) / 22 / float64(grid); perSlot >= 1.5 {
		t.Errorf("Restore: %d bytes/op at T=6, %d at T=28: %.2f decision grids a slot, want under 1.5",
			restored[0], restored[1], perSlot)
	}
	// The certificate of a finished run allocates its working grids once
	// per call, not once per slot: the same count at two horizons, so a
	// per-slot grid cannot come back. Ten calls each, since AllocsPerRun
	// divides in integers and the race runtime allocates once of its own
	// during two. (Last: its runs' garbage would move the collections the
	// served slots' pooled buffers are measured between.)
	for _, T := range []int{6, 28} {
		if got := testing.AllocsPerRun(10, certify(t, newCertRun(t, T))); got != 16 {
			t.Errorf("Certificate (T=%d): %v allocs/op, pinned at 16 at every horizon", T, got)
		}
	}
}

// bytesPerRun is the heap bytes one call of op allocates, averaged over n
// calls.
func bytesPerRun(n int, op func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < n; k++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}
