package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"edgealloc/internal/conform"
	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/route"
	"edgealloc/internal/serve"
)

// The serve API's wire shapes, written out here rather than imported: the
// benchmark is a client of the HTTP contract, and a field the server
// renames should break it.

// wireOptions is the client-settable subset of core.Options. The shard
// coordinator's penalty, cap and tolerances are not settable over the
// wire, so serving passes never shard.
type wireOptions struct {
	Candidates     int     `json:"candidates,omitempty"`
	CandidateTol   float64 `json:"candidateTol,omitempty"`
	FastMath       bool    `json:"fastMath,omitempty"`
	Incremental    bool    `json:"incremental,omitempty"`
	IncrementalTol float64 `json:"incrementalTol,omitempty"`
	MaxOuter       int     `json:"maxOuter,omitempty"`
	InnerIters     int     `json:"innerIters,omitempty"`
	Workers        int     `json:"workers,omitempty"`
	FeasTol        float64 `json:"feasTol,omitempty"`
	ObjTol         float64 `json:"objTol,omitempty"`
	DualTol        float64 `json:"dualTol,omitempty"`
	Penalty        float64 `json:"penalty,omitempty"`
}

func wireOptionsOf(o core.Options) wireOptions {
	return wireOptions{
		Candidates: o.Candidates, CandidateTol: o.CandidateTol,
		FastMath:    o.FastMath,
		Incremental: o.Incremental, IncrementalTol: o.IncrementalTol,
		MaxOuter: o.Solver.MaxOuter, InnerIters: o.Solver.InnerIters,
		Workers: o.Solver.Workers,
		FeasTol: o.Solver.FeasTol, ObjTol: o.Solver.ObjTol, DualTol: o.Solver.DualTol,
		Penalty: o.Solver.Penalty,
	}
}

type createBody struct {
	ID       string          `json:"id"`
	Instance *model.Instance `json:"instance"`
	Horizon  int             `json:"horizon"`
	Options  wireOptions     `json:"options"`
}

type slotBody struct {
	Slot        int       `json:"slot"`
	OpPrice     []float64 `json:"opPrice"`
	Attach      []int     `json:"attach"`
	AccessDelay []float64 `json:"accessDelay"`
}

type slotReply struct {
	Slot int  `json:"slot"`
	Done bool `json:"done"`
	Cost struct {
		RunTotal float64 `json:"runTotal"`
	} `json:"cost"`
	Solve struct {
		Seconds         float64 `json:"seconds"`
		InnerIterations int     `json:"innerIterations"`
	} `json:"solve"`
	Conformance *struct {
		OK           bool    `json:"ok"`
		LowerBoundP0 float64 `json:"lowerBoundP0"`
	} `json:"conformance"`
}

type statusReply struct {
	NextSlot int  `json:"nextSlot"`
	Done     bool `json:"done"`
}

// serveVariant selects what a serving pass puts in the request path.
type serveVariant struct {
	// autosnapshot persists a snapshot after every committed slot, as the
	// serve_stream workload runs; the traced run repeats a few slots
	// without it to price the snapshot alone.
	autosnapshot bool
	// routed sends every request through a route.Router in front of the
	// server.
	routed bool
	// timed caps the timed slots per session (zero keeps the workload's).
	timed int
}

// session is one streaming session's pre-built requests and measurements.
type session struct {
	id    string
	in    *model.Instance
	slots [][]byte
	// due, sent, recv and solve describe the timed slots and refUs the
	// reference kernel sampled after each; last is the most recent reply,
	// inner and respBytes total every slot's.
	due, sent, recv  []time.Time
	solve, refUs     []float64
	last             slotReply
	inner, respBytes int
	err              error
}

type httpClient struct {
	hc   *http.Client
	base string
}

// do sends one request and reads the whole reply.
func (c *httpClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// expect is do that turns any status but want into an error.
func (c *httpClient) expect(want int, method, path string, body []byte) ([]byte, error) {
	status, out, err := c.do(method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, status, want, out)
	}
	return out, nil
}

// listen serves h on a loopback port until the returned stop is called.
func listen(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// serving starts the in-process server behind a loopback listener, with a
// router in front of it when asked, and returns the base URL clients use
// and a stop that shuts everything down and removes the snapshot scratch.
func serving(v serveVariant, outDir string) (base string, stop func(), err error) {
	dir := filepath.Join(outDir, fmt.Sprintf("snapshots-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	srv := serve.New(serve.Config{Workers: solverWorkers, SnapshotDir: dir, Autosnapshot: v.autosnapshot})
	stops := []func(){func() { srv.Close(); os.RemoveAll(dir) }}
	stop = func() {
		for k := len(stops) - 1; k >= 0; k-- {
			stops[k]()
		}
	}
	base, stopServer, err := listen(srv.Handler())
	if err != nil {
		stop()
		return "", nil, err
	}
	stops = append(stops, stopServer)
	if v.routed {
		rt, err := route.New(route.Config{Replicas: []string{base}})
		if err != nil {
			stop()
			return "", nil, err
		}
		var stopRouter func()
		if base, stopRouter, err = listen(rt.Handler()); err != nil {
			stop()
			return "", nil, err
		}
		stops = append(stops, stopRouter)
	}
	return base, stop, nil
}

// serveMeter accumulates what a serving pass measures outside the timed
// slots' own series.
type serveMeter struct {
	createMs, reqKB, respKB, lateMs     float64
	statusMs, snapMs, snapKB, restoreMs float64
	sessions                            float64
	conformOK                           float64
}

// servePass runs the workload's episodes as streaming sessions of one
// in-process serve.Server behind a real loopback listener. The load
// generator is this process too — one goroutine and one connection per
// session — so CPU and RSS are those of the whole serving system. Every
// request body is marshalled during set-up.
func servePass(w *workload, seed int64, smoke bool, v serveVariant, outDir string, tr *tracer) *passRecord {
	rec := &passRecord{Layer: map[string]float64{}}
	setupStart := time.Now()
	root := tr.begin("pass", 0, -1)
	defer func() { tr.end(root) }()

	base, stop, err := serving(v, outDir)
	if err != nil {
		rec.problem("serving: %v", err)
		return rec
	}
	defer stop()
	timed, period := w.horizon(smoke)-w.warm, w.period
	if v.timed > 0 {
		timed = min(timed, v.timed)
	}
	if smoke {
		period /= 8
	}
	T := w.warm + timed
	transport := &http.Transport{MaxIdleConnsPerHost: w.episodes, MaxConnsPerHost: w.episodes}
	defer transport.CloseIdleConnections()
	c := &httpClient{hc: &http.Client{Transport: transport, Timeout: time.Minute}, base: base}
	m := &serveMeter{sessions: float64(w.episodes), conformOK: 1}

	// Set-up: generate, create the sessions, run the warm-up slots.
	sessions := make([]*session, w.episodes)
	for k := range sessions {
		sess, err := m.open(rec, tr, root, c, w, seed, k, smoke, T)
		if err != nil {
			rec.problem("episode %d: %v", k, err)
			return rec
		}
		sessions[k] = sess
		rec.Slots += T
		rec.Attempted += timed
	}

	// Timed region: every session advances one slot per period, the
	// sessions staggered evenly across it.
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now().Add(10 * time.Millisecond)
	const refLead = 5 * time.Millisecond // three kernel runs (~1 ms each) plus slack before a due time
	rec.SetupS = start.Sub(setupStart).Seconds()
	cpu0 := cpuNow()
	var wg sync.WaitGroup
	for k, sess := range sessions {
		wg.Add(1)
		go func(k int, sess *session) {
			defer wg.Done()
			offset := time.Duration(k) * period / time.Duration(len(sessions))
			for n := 0; n < timed; n++ {
				// The reference kernel is sampled in the idle gap just
				// before the slot is due: right after a reply it shares
				// the CPUs with the collector and the other sessions and
				// reads up to 15% slow. Two discarded runs first bring
				// the core back from the sleep's idle state.
				due := start.Add(offset + time.Duration(n)*period)
				time.Sleep(time.Until(due) - refLead)
				refSample()
				refSample()
				sess.refUs = append(sess.refUs, float64(refSample())/1e3)
				time.Sleep(time.Until(due))
				sent, recv := sess.advance(c, w.warm+n)
				if sess.err != nil {
					return
				}
				sess.due = append(sess.due, due)
				sess.sent = append(sess.sent, sent)
				sess.recv = append(sess.recv, recv)
				sess.solve = append(sess.solve, sess.last.Solve.Seconds)
			}
		}(k, sess)
	}
	wg.Wait()
	rec.CPUMs = ms(cpuNow() - cpu0)
	rec.TimedS = time.Since(start).Seconds()
	var refUs []float64
	for _, sess := range sessions {
		refUs = append(refUs, sess.refUs...)
	}
	rec.CPUMs -= sum(refUs) / 1e3 // the kernel's own CPU is not the serving system's
	rec.Speed = hostSpeed(refUs)
	var gc goStats
	if tr != nil {
		runtime.ReadMemStats(&after)
		gc.span(&before, &after)
	}

	for k, sess := range sessions {
		n := len(sess.recv)
		lat, rtt, solve := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			lat[i] = ms(sess.recv[i].Sub(sess.due[i]))
			rtt[i] = ms(sess.recv[i].Sub(sess.sent[i]))
			solve[i] = sess.solve[i] * 1e3
			m.lateMs = max(m.lateMs, ms(sess.sent[i].Sub(sess.due[i])))
			id := tr.add("slot", root, k, w.warm+i, sess.due[i], sess.recv[i])
			rt := tr.add("roundtrip", id, k, w.warm+i, sess.sent[i], sess.recv[i])
			tr.reported("solve", rt, time.Duration(sess.solve[i]*float64(time.Second)))
		}
		rec.LatMs = append(rec.LatMs, lat)
		rec.RoundtripMs = append(rec.RoundtripMs, rtt)
		rec.SolveMs = append(rec.SolveMs, solve)
		rec.Inner += sess.inner
		m.respKB += float64(sess.respBytes) / 1024 / float64(T) / m.sessions
		if sess.err != nil {
			rec.problem("episode %d slot %d: %v", k, w.warm+n, sess.err)
			rec.Failed += timed - n
			continue
		}
		problems := len(rec.Problems)
		m.close(rec, tr, root, c, sess, k, T)
		if len(rec.Problems) > problems {
			// A schedule that fails the gate fails every slot it timed.
			rec.Failed += timed
		}
	}
	rec.RSSMB = rssPeakMB()
	if tr != nil {
		rec.Layer["host.speed"] = rec.Speed
		m.layer(rec, tr, root, c)
		gc.layer(rec.Layer, timed*len(sessions))
		rec.Spans = tr.spans
	}
	return rec
}

// open generates episode k, marshals every request it will send, creates
// its session and runs the warm-up slots.
func (m *serveMeter) open(rec *passRecord, tr *tracer, root int, c *httpClient, w *workload, seed int64, k int, smoke bool, T int) (*session, error) {
	var in *model.Instance
	var err error
	tr.timed("generate", root, k, func() { in, err = w.episode(seed, k, smoke) })
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	rec.Digests = append(rec.Digests, instanceDigest(in))
	in = window(in, 0, T)
	skeleton := *in
	skeleton.T, skeleton.OpPrice, skeleton.Attach, skeleton.AccessDelay = 0, nil, nil, nil
	sess := &session{id: fmt.Sprintf("bench-%d", k), in: in}
	create, err := json.Marshal(createBody{ID: sess.id, Instance: &skeleton, Horizon: T, Options: wireOptionsOf(w.opts)})
	if err != nil {
		return nil, err
	}
	for t := 0; t < T; t++ {
		b, err := json.Marshal(slotBody{Slot: t, OpPrice: in.OpPrice[t], Attach: in.Attach[t], AccessDelay: in.AccessDelay[t]})
		if err != nil {
			return nil, err
		}
		sess.slots = append(sess.slots, b)
		m.reqKB += float64(len(b)) / 1024 / float64(T) / m.sessions
	}
	m.createMs += tr.timed("create", root, k, func() {
		_, err = c.expect(http.StatusCreated, "POST", "/v1/sessions", create)
	}) / m.sessions
	if err != nil {
		return nil, err
	}
	for t := 0; t < w.warm; t++ {
		sent, recv := sess.advance(c, t)
		if sess.err != nil {
			return nil, fmt.Errorf("warm-up slot %d: %w", t, sess.err)
		}
		tr.add("warmup", root, k, t, sent, recv)
	}
	return sess, nil
}

// close is the serving pass's correctness gate on one finished session,
// outside the timed region: the final reply, the schedule the server
// returns, and snapshot → delete → restore coming back at the same slot.
func (m *serveMeter) close(rec *passRecord, tr *tracer, root int, c *httpClient, sess *session, k, T int) {
	v := tr.begin("verify", root, k)
	defer tr.end(v)
	path := "/v1/sessions/" + sess.id
	if !sess.last.Done || sess.last.Conformance == nil {
		rec.problem("episode %d: final slot not marked done with a conformance summary", k)
	} else {
		rec.Cost += sess.last.Cost.RunTotal
		rec.LowerBound += sess.last.Conformance.LowerBoundP0
		if !sess.last.Conformance.OK {
			m.conformOK = 0
		}
	}
	if raw, err := c.expect(http.StatusOK, "GET", path+"/schedule", nil); err != nil {
		rec.problem("episode %d: %v", k, err)
	} else if sched, err := model.ReadSchedule(bytes.NewReader(raw)); err != nil {
		rec.problem("episode %d: schedule: %v", k, err)
	} else {
		rec.Schedules = append(rec.Schedules, floatsDigest(rows(sched)))
		sess.verify(rec, k, sched)
	}

	var raw, snap []byte
	var err error
	m.statusMs += tr.timed("status", v, k, func() { raw, err = c.expect(http.StatusOK, "GET", path, nil) }) / m.sessions
	if err != nil {
		rec.problem("episode %d: %v", k, err)
	}
	m.snapMs += tr.timed("snapshot", v, k, func() { snap, err = c.expect(http.StatusOK, "POST", path+"/snapshot", nil) }) / m.sessions
	m.snapKB += float64(len(snap)) / 1024 / m.sessions
	if err == nil {
		_, err = c.expect(http.StatusNoContent, "DELETE", path, nil)
	}
	if err != nil {
		rec.problem("episode %d: %v", k, err)
		return
	}
	m.restoreMs += tr.timed("restore", v, k, func() {
		_, err = c.expect(http.StatusCreated, "POST", "/v1/sessions/restore", snap)
	}) / m.sessions
	var st statusReply
	if err == nil {
		if raw, err = c.expect(http.StatusOK, "GET", path, nil); err == nil {
			err = json.Unmarshal(raw, &st)
		}
	}
	if err != nil || st.NextSlot != T || !st.Done {
		rec.problem("episode %d: restored at slot %d done=%v, want %d done (%v)", k, st.NextSlot, st.Done, T, err)
	}
}

// layer reports the serving layer's metrics of a traced pass and scrapes
// the server's own telemetry.
func (m *serveMeter) layer(rec *passRecord, tr *tracer, root int, c *httpClient) {
	overhead := flatten(rec.RoundtripMs)
	for i, s := range flatten(rec.SolveMs) {
		overhead[i] -= s
	}
	out := rec.Layer
	out["serve.create_ms"] = m.createMs
	out["serve.roundtrip_ms_p50"] = median(flatten(rec.RoundtripMs))
	out["serve.solve_ms_p50"] = median(flatten(rec.SolveMs))
	out["serve.overhead_ms_p50"] = median(overhead)
	out["serve.overhead_ms_tail"] = percentile(overhead, float64(tailPercentile(len(overhead))))
	out["serve.snapshot_ms"] = m.snapMs
	out["serve.snapshot_kb"] = m.snapKB
	out["serve.restore_ms"] = m.restoreMs
	out["serve.req_kb"] = m.reqKB
	out["serve.resp_kb"] = m.respKB
	out["serve.status_ms"] = m.statusMs
	out["serve.conform_ok"] = m.conformOK
	out["gen.late_ms_max"] = m.lateMs
	var text []byte
	var err error
	out["telemetry.scrape_ms"] = tr.timed("scrape", root, -1, func() { text, err = c.expect(http.StatusOK, "GET", "/metrics", nil) })
	if err != nil {
		rec.problem("%v", err)
	}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out["telemetry.series"]++
		if strings.HasPrefix(line, "edgealloc_serve_rejected_total") {
			var n float64
			if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &n); err == nil {
				out["serve.rejected"] += n
			}
		}
	}
}

// advance posts slot t and returns when it was sent and when the whole
// reply had arrived; a non-200 or undecodable reply sets s.err.
func (s *session) advance(c *httpClient, t int) (sent, recv time.Time) {
	sent = time.Now()
	status, raw, err := c.do("POST", "/v1/sessions/"+s.id+"/slots", s.slots[t])
	recv = time.Now()
	var reply slotReply
	switch {
	case err != nil:
		s.err = err
	case status != http.StatusOK:
		s.err = fmt.Errorf("status %d: %.200s", status, raw)
	default:
		s.err = json.Unmarshal(raw, &reply)
	}
	if s.err == nil {
		s.last = reply
		s.respBytes += len(raw)
		s.inner += reply.Solve.InnerIterations
	}
	return sent, recv
}

// verify is the serving pass's correctness gate on one finished session:
// the schedule the server returns must be feasible and pass the
// conformance oracle's schedule-level checks against the instance this
// process generated, cost what the server says it cost, and cost no less
// than the lower bound the server certified.
func (s *session) verify(rec *passRecord, k int, sched model.Schedule) {
	if err := s.in.CheckFeasible(sched, feasTol); err != nil {
		rec.problem("episode %d: infeasible: %v", k, err)
		return
	}
	if err := conform.Check(s.in, sched, nil, conform.Options{}).Err(); err != nil {
		rec.problem("episode %d: %v", k, err)
	}
	b, err := s.in.Evaluate(sched)
	if err != nil {
		rec.problem("episode %d: evaluate: %v", k, err)
		return
	}
	cost, said := s.in.Total(b), s.last.Cost.RunTotal
	if d := cost - said; d > 1e-9*cost || d < -1e-9*cost {
		rec.problem("episode %d: schedule costs %v, server reported %v", k, cost, said)
	}
	if lb := s.last.Conformance; lb != nil && lb.LowerBoundP0 > cost*(1+1e-9) {
		rec.problem("episode %d: certified lower bound %v above cost %v", k, lb.LowerBoundP0, cost)
	}
}
