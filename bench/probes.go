package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/numkernel"
	"edgealloc/internal/route"
	"edgealloc/internal/solver/shardrpc"
	"edgealloc/internal/telemetry"
)

// probePass measures the layers no workload has in its request path, on
// episode 0 of the workload so the sizes are the workload's own: the model
// codec, the batch log kernel against the stdlib loop it replaces, the
// router's ownership function, and — where the workload shards — the same
// slots with the blocks behind the shardrpc transport.
func probePass(w *workload, seed int64, smoke bool) *passRecord {
	rec := &passRecord{Layer: map[string]float64{}}
	in, err := w.episode(seed, 0, smoke)
	if err != nil {
		rec.problem("generate: %v", err)
		return rec
	}
	out := rec.Layer

	var buf bytes.Buffer
	s := time.Now()
	if err := model.WriteInstance(&buf, in); err != nil {
		rec.problem("encode: %v", err)
	}
	out["model.encode_ms"] = ms(time.Since(s))
	out["model.encode_kb"] = float64(buf.Len()) / 1024
	s = time.Now()
	back, err := model.ReadInstance(&buf)
	out["model.decode_ms"] = ms(time.Since(s))
	if err != nil {
		rec.problem("decode: %v", err)
	} else if instanceDigest(back) != instanceDigest(in) {
		rec.problem("instance changed across encode/decode")
	}

	// One row of migration-ratio operands, J wide as the solver sees them.
	rng := rand.New(rand.NewSource(seed))
	src, dst := make([]float64, in.J), make([]float64, in.J)
	for j := range src {
		src[j] = math.Exp(6 * (rng.Float64() - 0.5))
	}
	reps := 1 + 2_000_000/in.J
	s = time.Now()
	for r := 0; r < reps; r++ {
		numkernel.LogBatch(dst, src)
	}
	out["numkernel.logbatch_ns_per_elem"] = float64(time.Since(s)) / float64(reps*in.J)
	s = time.Now()
	for r := 0; r < reps; r++ {
		for j, x := range src {
			dst[j] = math.Log(x)
		}
	}
	out["numkernel.stdlib_log_ns_per_elem"] = float64(time.Since(s)) / float64(reps*in.J)

	replicas := []string{"http://10.0.0.1:8081", "http://10.0.0.2:8081", "http://10.0.0.3:8081"}
	const owners = 100_000
	hits := 0
	s = time.Now()
	for n := 0; n < owners; n++ {
		if route.Owner(replicas, fmt.Sprintf("bench-%d", n)) == replicas[0] {
			hits++
		}
	}
	out["route.owner_ns"] = float64(time.Since(s)) / owners
	if hits == 0 || hits == owners {
		rec.problem("route.Owner placed %d of %d sessions on one replica", hits, owners)
	}

	if w.opts.Shards > 0 {
		rpcProbe(rec, in, w.opts)
	}
	rec.RSSMB = rssPeakMB()
	return rec
}

// countingHandler times and sizes every request a shard worker serves.
type countingHandler struct {
	next                               http.Handler
	calls, reqBytes, respBytes, respNs atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return w.ResponseWriter.Write(p)
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := time.Now()
	body := &countingReader{r: r.Body}
	r.Body = body
	h.next.ServeHTTP(countingWriter{w, &h.respBytes}, r)
	h.calls.Add(1)
	h.reqBytes.Add(body.n)
	h.respNs.Add(int64(time.Since(s)))
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// rpcProbe steps the instance twice under the same options, once with
// every shard block in process and once with the blocks on two loopback
// shard workers (the production ShardHost behind the production server),
// and requires the two schedules to be bit-equal with no block folded
// back to local solving. On a host whose two vCPUs the workers share with
// the coordinator the transport can only cost time; the figures are for
// ROADMAP's prove-or-prune decision, which is why no workload depends on
// this tier.
func rpcProbe(rec *passRecord, in *model.Instance, opts core.Options) {
	run := func(opts core.Options) (model.Schedule, []float64, error) {
		alg := core.NewOnlineApprox(in, opts)
		lat := make([]float64, in.T)
		for t := 0; t < in.T; t++ {
			s := time.Now()
			if _, err := alg.Step(t); err != nil {
				return nil, nil, fmt.Errorf("slot %d: %w", t, err)
			}
			lat[t] = ms(time.Since(s))
		}
		return alg.Schedule(), lat, nil
	}
	local, localMs, err := run(opts)
	if err != nil {
		rec.problem("rpc probe, in process: %v", err)
		return
	}

	var workers [2]*countingHandler
	remote := opts
	remote.Metrics = telemetry.NewSolverMetrics(telemetry.NewRegistry())
	for k := range workers {
		workers[k] = &countingHandler{next: shardrpc.NewServer(core.NewShardHost())}
		base, stop, err := listen(workers[k])
		if err != nil {
			rec.problem("rpc probe: listen: %v", err)
			return
		}
		defer stop()
		remote.ShardWorkers = append(remote.ShardWorkers, base)
	}
	defer http.DefaultClient.CloseIdleConnections()
	dist, distMs, err := run(remote)
	if err != nil {
		rec.problem("rpc probe, over rpc: %v", err)
		return
	}

	var calls, reqBytes, respBytes, serverNs int64
	for _, h := range workers {
		calls += h.calls.Load()
		reqBytes += h.reqBytes.Load()
		respBytes += h.respBytes.Load()
		serverNs += h.respNs.Load()
	}
	slots := float64(in.T)
	over := make([]float64, in.T)
	for t := range over {
		over[t] = distMs[t] - localMs[t]
	}
	equal := 1.0
	if floatsDigest(rows(local)) != floatsDigest(rows(dist)) {
		equal = 0
		rec.problem("rpc probe: schedule over rpc differs from in-process schedule")
	}
	fallbacks := remote.Metrics.RPCFallbacks.Value()
	if fallbacks != 0 {
		rec.problem("rpc probe: %v shard blocks fell back to local solving", fallbacks)
	}
	out := rec.Layer
	out["shardrpc.calls_per_slot"] = float64(calls) / slots
	out["shardrpc.req_kb_per_slot"] = float64(reqBytes) / 1024 / slots
	out["shardrpc.resp_kb_per_slot"] = float64(respBytes) / 1024 / slots
	out["shardrpc.server_ms_per_slot"] = float64(serverNs) / 1e6 / slots
	out["shardrpc.overhead_ms_per_slot"] = median(over)
	out["shardrpc.fallbacks"] = fallbacks
	out["shardrpc.bitwise_equal"] = equal
}

// rows views a schedule as its slots' flat decision vectors.
func rows(s model.Schedule) [][]float64 {
	out := make([][]float64, len(s))
	for t, x := range s {
		out[t] = x.X
	}
	return out
}
