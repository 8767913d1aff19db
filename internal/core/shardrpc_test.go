package core

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"edgealloc/internal/conform"
	"edgealloc/internal/model"
	"edgealloc/internal/solver/shardrpc"
	"edgealloc/internal/telemetry"
)

// newTestWorker starts an in-process shard worker: the production
// ShardHost behind the production HTTP server, on a loopback listener.
func newTestWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(shardrpc.NewServer(NewShardHost()))
	t.Cleanup(srv.Close)
	return srv
}

// distInstance is the shared test instance: small enough that the
// ultra-tight stack solves P2 to ~1e-9, big enough that a 3-shard split
// is nondegenerate.
func distInstance() *model.Instance {
	return conform.GenInstance(conform.GenConfig{Seed: 11, I: 4, J: 6, T: 4})
}

// TestDistributedMatchesInProcessBitwise pins the transport's core
// promise: with healthy workers, placing the shard blocks behind the RPC
// boundary changes nothing — the schedule is byte-identical to the same
// options solved in process, across the composing tiers (candidates,
// fast-math).
func TestDistributedMatchesInProcessBitwise(t *testing.T) {
	in := distInstance()
	cases := []struct {
		name string
		opts Options
	}{
		{"shards", Options{Shards: 3}},
		{"one shard", Options{Shards: 1}},
		{"more shards than workers", Options{Shards: 5}},
		{"with candidates", Options{Shards: 3, Candidates: 2}},
		{"with fastmath", Options{Shards: 2, FastMath: true}},
	}
	workers := []string{newTestWorker(t).URL, newTestWorker(t).URL}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			local, err := NewOnlineApprox(in, tc.opts).Run()
			if err != nil {
				t.Fatal(err)
			}
			dopts := tc.opts
			dopts.ShardWorkers = workers
			dopts.Metrics = telemetry.NewSolverMetrics(telemetry.NewRegistry())
			dist, err := NewOnlineApprox(in, dopts).Run()
			if err != nil {
				t.Fatal(err)
			}
			for tt := range local {
				if !allocsEqual(local[tt], dist[tt]) {
					t.Fatalf("slot %d: distributed schedule differs from in-process", tt)
				}
			}
			if n := dopts.Metrics.RPCFallbacks.Value(); n != 0 {
				t.Fatalf("healthy workers folded %v blocks", n)
			}
		})
	}
}

// chaosWorker is a worker whose hosted state can be wiped mid-run: every
// restartEvery-th solve request is preceded by swapping in a fresh
// ShardHost, which is exactly what a killed-and-restarted edgeshard
// process looks like to the coordinator (same address, empty state).
func chaosWorker(t *testing.T, restartEvery int64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var handler atomic.Value
	handler.Store(shardrpc.NewServer(NewShardHost()))
	var solves, restarts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/solve") && solves.Add(1)%restartEvery == 0 {
			restarts.Add(1)
			handler.Store(shardrpc.NewServer(NewShardHost()))
		}
		handler.Load().(*shardrpc.Server).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &restarts
}

// TestDistributedWorkerRestartMatchesReference is the chaos conformance
// test: workers that keep losing all hosted state mid-run (restarts
// strike between solves, between rounds, and across slot boundaries)
// must leave the run feasible and on the uninterrupted in-process
// reference's cost — a restart costs at most one coordination round,
// which the convergence gates re-derive.
//
// What "on" can certify: at shardTestOpts both walks stop at the 400-round
// coordination cap with a consensus residual of 1e-9…4e-7 per slot, so two
// walks that differ only in where a round was replayed agree to that
// residual and no better. The bar that holds for every restart schedule is
// therefore 1e-7, asserted over seven period pairs (measured 1.0e-8…4.4e-8;
// ROADMAP 1(a)). The single pair (17, 29) used to carry a 1e-8 bar, which
// was a draw on that floor: 2.0e-9, 6.2e-9, 1.28e-8 and 1.45e-8 across
// four bit-level changes to the coordination walk.
func TestDistributedWorkerRestartMatchesReference(t *testing.T) {
	t.Parallel()
	in := distInstance()
	opts := shardTestOpts(3)
	ref, err := NewOnlineApprox(in, opts).Run()
	if err != nil {
		t.Fatal(err)
	}
	rc := totalOf(t, in, ref)

	for _, periods := range [][2]int64{{17, 29}, {5, 7}, {11, 13}, {3, 50}, {23, 41}, {9, 31}, {13, 19}} {
		w1, restarts1 := chaosWorker(t, periods[0])
		w2, restarts2 := chaosWorker(t, periods[1])
		dopts := opts
		dopts.ShardWorkers = []string{w1.URL, w2.URL}
		dist, err := NewOnlineApprox(in, dopts).Run()
		if err != nil {
			t.Fatal(err)
		}
		if restarts1.Load()+restarts2.Load() == 0 {
			t.Fatalf("periods %v: chaos workers never restarted; the run exercised nothing", periods)
		}
		if rep := conform.Check(in, dist, nil, conform.Options{}); !rep.OK() {
			t.Fatalf("periods %v: chaos run broke feasibility: %v", periods, rep.Err())
		}
		dc := totalOf(t, in, dist)
		d := math.Abs(rc-dc) / (1 + math.Abs(rc))
		t.Logf("periods %v: chaos run cost %g vs reference %g (rel %.3g)", periods, dc, rc, d)
		if d > 1e-7 {
			t.Errorf("periods %v: chaos run cost %g vs reference %g (rel %g > 1e-7)", periods, dc, rc, d)
		}
	}
}

// TestDistributedDeadWorkersFoldToLocal pins graceful degradation: when
// workers are unreachable from the start, every block folds back to the
// in-process mirror and the run completes byte-identical to the purely
// local sharded solve, with the folds counted by the solver metrics.
func TestDistributedDeadWorkersFoldToLocal(t *testing.T) {
	in := distInstance()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from the first dial

	opts := Options{Shards: 3}
	local, err := NewOnlineApprox(in, opts).Run()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("all workers dead", func(t *testing.T) {
		dopts := opts
		dopts.ShardWorkers = []string{dead.URL}
		dopts.Metrics = telemetry.NewSolverMetrics(telemetry.NewRegistry())
		dist, err := NewOnlineApprox(in, dopts).Run()
		if err != nil {
			t.Fatal(err)
		}
		for tt := range local {
			if !allocsEqual(local[tt], dist[tt]) {
				t.Fatalf("slot %d: folded schedule differs from in-process", tt)
			}
		}
		if dopts.Metrics.RPCFallbacks.Value() == 0 {
			t.Fatal("dead workers produced no recorded fallbacks")
		}
	})

	t.Run("one dead one live", func(t *testing.T) {
		dopts := opts
		dopts.ShardWorkers = []string{dead.URL, newTestWorker(t).URL}
		dopts.Metrics = telemetry.NewSolverMetrics(telemetry.NewRegistry())
		dist, err := NewOnlineApprox(in, dopts).Run()
		if err != nil {
			t.Fatal(err)
		}
		for tt := range local {
			if !allocsEqual(local[tt], dist[tt]) {
				t.Fatalf("slot %d: mixed-pool schedule differs from in-process", tt)
			}
		}
		if dopts.Metrics.RPCFallbacks.Value() == 0 {
			t.Fatal("the dead worker's blocks did not fold")
		}
	})
}

// TestDistSoak is the harness entry point of scripts/dist_soak.sh: it
// runs only when DIST_SOAK_WORKERS names externally launched edgeshard
// workers (which the script kills and restarts throughout the run) and
// requires the distributed solve to stay feasible and within 1e-8 of the
// in-process reference no matter what the chaos loop does to the pool.
func TestDistSoak(t *testing.T) {
	env := os.Getenv("DIST_SOAK_WORKERS")
	if env == "" {
		t.Skip("set DIST_SOAK_WORKERS=http://host:port,... (see scripts/dist_soak.sh)")
	}
	var workers []string
	for _, w := range strings.Split(env, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workers = append(workers, w)
		}
	}
	in := conform.GenInstance(conform.GenConfig{Seed: 7, I: 5, J: 16, T: 8})
	opts := shardTestOpts(4)
	ref, err := NewOnlineApprox(in, opts).Run()
	if err != nil {
		t.Fatal(err)
	}

	dopts := opts
	dopts.ShardWorkers = workers
	dopts.Metrics = telemetry.NewSolverMetrics(telemetry.NewRegistry())
	start := time.Now()
	dist, err := NewOnlineApprox(in, dopts).Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %d workers, %v, %v folds", len(workers), time.Since(start).Round(time.Millisecond),
		dopts.Metrics.RPCFallbacks.Value())

	if rep := conform.Check(in, dist, nil, conform.Options{}); !rep.OK() {
		t.Fatalf("soak run broke feasibility: %v", rep.Err())
	}
	rc, dc := totalOf(t, in, ref), totalOf(t, in, dist)
	if d := math.Abs(rc-dc) / (1 + math.Abs(rc)); d > 1e-8 {
		t.Fatalf("soak run cost %g vs reference %g (rel %g > 1e-8)", dc, rc, d)
	}
}
