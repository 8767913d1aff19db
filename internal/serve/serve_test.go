package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/sim"
	"edgealloc/internal/solver/alm"
)

// testInstance builds a small but non-trivial Rome instance (15 clouds).
func testInstance(t *testing.T, users, horizon int, seed int64) *model.Instance {
	t.Helper()
	in, _, err := scenario.Rome(scenario.Config{Users: users, Horizon: horizon, Seed: seed})
	if err != nil {
		t.Fatalf("building instance: %v", err)
	}
	return in
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Close() })
	return s, ts
}

func doJSON(t *testing.T, method, url string, body, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, raw
}

// createSession posts the instance (replay mode) and returns the id.
func createSession(t *testing.T, base string, in *model.Instance) string {
	t.Helper()
	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, in); err != nil {
		t.Fatalf("encoding instance: %v", err)
	}
	var resp createResponse
	code, raw := doJSON(t, http.MethodPost, base+"/v1/sessions",
		map[string]any{"instance": json.RawMessage(buf.Bytes())}, &resp)
	if code != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", code, raw)
	}
	return resp.ID
}

// driveSession posts every slot of the horizon and returns the
// per-slot responses.
func driveSession(t *testing.T, base, id string, horizon int) []slotResponse {
	t.Helper()
	out := make([]slotResponse, 0, horizon)
	for slot := 0; slot < horizon; slot++ {
		var resp slotResponse
		code, raw := doJSON(t, http.MethodPost,
			fmt.Sprintf("%s/v1/sessions/%s/slots", base, id),
			map[string]any{"slot": slot}, &resp)
		if code != http.StatusOK {
			t.Fatalf("slot %d: status %d: %s", slot, code, raw)
		}
		out = append(out, resp)
	}
	return out
}

// fetchSchedule decodes the session's schedule through the model codec.
func fetchSchedule(t *testing.T, base, id string) model.Schedule {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id + "/schedule")
	if err != nil {
		t.Fatalf("get schedule: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get schedule: status %d", resp.StatusCode)
	}
	sched, err := model.ReadSchedule(resp.Body)
	if err != nil {
		t.Fatalf("decoding schedule: %v", err)
	}
	return sched
}

// reference runs the batch sim path on the instance.
func reference(t *testing.T, in *model.Instance) *sim.Run {
	t.Helper()
	run, err := sim.Execute(in, core.NewOnlineApprox(nil, core.Options{}))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return run
}

func schedulesEqual(a, b model.Schedule) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if a[t].I != b[t].I || a[t].J != b[t].J || len(a[t].X) != len(b[t].X) {
			return false
		}
		for k := range a[t].X {
			if a[t].X[k] != b[t].X[k] {
				return false
			}
		}
	}
	return true
}

// TestConcurrentSessionsMatchBatchSim drives several sessions with
// distinct instances concurrently and requires every schedule to be
// byte-identical to the batch sim path on the same instance.
func TestConcurrentSessionsMatchBatchSim(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const horizon = 3
	seeds := []int64{1, 2, 3}
	// Instances and batch-sim references are computed on the test
	// goroutine; the goroutines below only drive the HTTP API.
	ins := make([]*model.Instance, len(seeds))
	wants := make([]*sim.Run, len(seeds))
	for k, seed := range seeds {
		ins[k] = testInstance(t, 5, horizon, seed)
		wants[k] = reference(t, ins[k])
	}
	var wg sync.WaitGroup
	for k, seed := range seeds {
		wg.Add(1)
		go func(k int, seed int64) {
			defer wg.Done()
			in, want := ins[k], wants[k]
			id := createSession(t, ts.URL, in)
			resps := driveSession(t, ts.URL, id, horizon)
			got := fetchSchedule(t, ts.URL, id)
			if !schedulesEqual(got, want.Schedule) {
				t.Errorf("seed %d: served schedule differs from batch sim schedule", seed)
			}
			last := resps[horizon-1]
			if !last.Done {
				t.Errorf("seed %d: final slot not marked done", seed)
			}
			if last.Conformance == nil || !last.Conformance.OK {
				t.Errorf("seed %d: conformance summary = %+v, want clean", seed, last.Conformance)
			}
			wantTotal := in.Total(want.Breakdown)
			if math.Abs(last.Cost.RunTotal-wantTotal) > 1e-9*(1+math.Abs(wantTotal)) {
				t.Errorf("seed %d: run total %g, batch sim total %g", seed, last.Cost.RunTotal, wantTotal)
			}
		}(k, seed)
	}
	wg.Wait()
}

// TestStreamingSessionMatchesReplay reveals slot data one post at a time
// (streaming mode) and requires the same schedule as the replay path.
func TestStreamingSessionMatchesReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const horizon = 3
	in := testInstance(t, 4, horizon, 7)
	want := reference(t, in)

	skeleton := *in
	skeleton.T = 0
	skeleton.OpPrice, skeleton.Attach, skeleton.AccessDelay = nil, nil, nil
	raw, err := json.Marshal(&skeleton)
	if err != nil {
		t.Fatalf("marshal skeleton: %v", err)
	}
	var created createResponse
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		map[string]any{"instance": json.RawMessage(raw), "horizon": horizon}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create streaming session: status %d: %s", code, body)
	}
	if !created.Streaming {
		t.Fatalf("session not marked streaming: %+v", created)
	}
	streamSlots(t, ts.URL, created.ID, in, 0, horizon)
	got := fetchSchedule(t, ts.URL, created.ID)
	if !schedulesEqual(got, want.Schedule) {
		t.Error("streamed schedule differs from batch sim schedule")
	}
}

// TestOverloadSheds429 saturates the single worker slot with a blocked
// solve and requires (a) an immediate 429 for a second session and (b)
// that the shed session solves correctly afterwards — overload must not
// corrupt other sessions.
func TestOverloadSheds429(t *testing.T) {
	started := make(chan string, 1)
	releaseCh := make(chan struct{})
	var hookOnce sync.Once
	cfg := Config{
		Workers:    1,
		QueueDepth: -1, // no wait queue: excess requests shed immediately
		hookSolveStart: func(id string) {
			var block bool
			hookOnce.Do(func() { block = true })
			if block {
				started <- id
				<-releaseCh
			}
		},
	}
	s, ts := newTestServer(t, cfg)

	const horizon = 2
	inA := testInstance(t, 4, horizon, 11)
	inB := testInstance(t, 4, horizon, 12)
	wantB := reference(t, inB)
	idA := createSession(t, ts.URL, inA)
	idB := createSession(t, ts.URL, inB)

	aDone := make(chan int, 1)
	go func() {
		code, _ := doJSON(t, http.MethodPost,
			fmt.Sprintf("%s/v1/sessions/%s/slots", ts.URL, idA), map[string]any{}, nil)
		aDone <- code
	}()
	select {
	case id := <-started:
		if id != idA {
			t.Fatalf("hook saw session %s, want %s", id, idA)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first solve never started")
	}

	code, _ := doJSON(t, http.MethodPost,
		fmt.Sprintf("%s/v1/sessions/%s/slots", ts.URL, idB), map[string]any{}, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overloaded post: status %d, want 429", code)
	}
	if got := s.mRejected.With("queue-full").Value(); got < 1 {
		t.Errorf("rejected{queue-full} = %g, want >= 1", got)
	}

	close(releaseCh)
	if code := <-aDone; code != http.StatusOK {
		t.Fatalf("blocked session A solve: status %d", code)
	}

	// The shed session must still work and produce the reference result.
	driveSession(t, ts.URL, idB, horizon)
	if got := fetchSchedule(t, ts.URL, idB); !schedulesEqual(got, wantB.Schedule) {
		t.Error("session B schedule corrupted after overload shedding")
	}
}

// TestShutdownDrainsInFlight starts a solve, holds it at the hook, and
// verifies Shutdown (a) refuses new work with 503 while draining and
// (b) returns only after the in-flight slot completed successfully.
func TestShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{})
	releaseCh := make(chan struct{})
	var hookOnce sync.Once
	cfg := Config{
		hookSolveStart: func(string) {
			hookOnce.Do(func() {
				close(started)
				<-releaseCh
			})
		},
	}
	s, ts := newTestServer(t, cfg)

	in := testInstance(t, 4, 2, 21)
	id := createSession(t, ts.URL, in)

	type result struct {
		code int
		resp slotResponse
	}
	solved := make(chan result, 1)
	go func() {
		var resp slotResponse
		code, _ := doJSON(t, http.MethodPost,
			fmt.Sprintf("%s/v1/sessions/%s/slots", ts.URL, id), map[string]any{}, &resp)
		solved <- result{code, resp}
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// Draining must reject new sessions with 503; poll until the flag is
	// visible (Shutdown sets it before waiting on the in-flight solve).
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
			map[string]any{"instance": json.RawMessage(`{}`)}, nil)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before in-flight slot drained: %v", err)
	default:
	}

	close(releaseCh)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res := <-solved
	if res.code != http.StatusOK {
		t.Fatalf("in-flight slot: status %d, want 200", res.code)
	}
	if res.resp.Slot != 0 || res.resp.Solve.Seconds <= 0 {
		t.Errorf("drained slot response malformed: %+v", res.resp)
	}
	// After drain completes, slot posts are refused.
	code, _ := doJSON(t, http.MethodPost,
		fmt.Sprintf("%s/v1/sessions/%s/slots", ts.URL, id), map[string]any{}, nil)
	if code != http.StatusServiceUnavailable {
		t.Errorf("post after shutdown: status %d, want 503", code)
	}
}

// TestMetricNamesMatchDesign pins the metric listing: the families a fresh
// daemon registers (the shared solver bundle plus the daemon's own), sorted
// as "name kind", are the ```metrics block of DESIGN.md §9, line for line.
func TestMetricNamesMatchDesign(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	var text bytes.Buffer
	if err := srv.registry.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(text.String(), "\n") {
		if family, ok := strings.CutPrefix(line, "# TYPE "); ok {
			got = append(got, family)
		}
	}
	slices.Sort(got)

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, found := strings.Cut(string(design), "```metrics\n")
	block, _, closed := strings.Cut(block, "\n```")
	if !found || !closed {
		t.Fatal("DESIGN.md has no ```metrics block")
	}
	if want := strings.Split(block, "\n"); !slices.Equal(got, want) {
		t.Errorf("registered families:\n%s\nDESIGN.md §9 lists:\n%s", strings.Join(got, "\n"), block)
	}
}

// TestMetricsMatchSolverDiagnostics drives one session and requires the
// /metrics endpoint's per-slot latency histogram and iteration counters
// to agree exactly with the diagnostics reported per response.
func TestMetricsMatchSolverDiagnostics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const horizon = 3
	in := testInstance(t, 4, horizon, 31)
	id := createSession(t, ts.URL, in)
	resps := driveSession(t, ts.URL, id, horizon)

	var wantSeconds float64
	var wantOuter, wantInner, dualSteps int
	for _, r := range resps {
		dualSteps += r.Solve.DualSteps
		wantSeconds += r.Solve.Seconds
		wantOuter += r.Solve.OuterIterations
		wantInner += r.Solve.InnerIterations
		// The reply says how the slot's solve ended, consistently with
		// the converged flag, and how stationary it left the point.
		if stop := r.Solve.Stop; (stop == alm.StopConverged) != r.Solve.Converged || stop == alm.StopNone {
			t.Errorf("slot %d: stop %q with converged=%v", r.Slot, stop, r.Solve.Converged)
		}
		if s := r.Solve.Stationarity; s <= 0 || (r.Solve.Converged && s > 1e-7) {
			t.Errorf("slot %d: stationarity %g with converged=%v", r.Slot, s, r.Solve.Converged)
		}
		// Every single-program slot reports its certified loop: on the
		// default tier one round over every pair.
		if c := r.Solve; c.CandidateRounds != 1 || c.CandidateNNZ != in.I*in.J {
			t.Errorf("slot %d: candidateRounds %d, candidateNNZ %d; want 1 and %d",
				r.Slot, c.CandidateRounds, c.CandidateNNZ, in.I*in.J)
		}
	}
	// The reply says which multiplier update the solves took.
	if dualSteps == 0 {
		t.Error("no slot reports a second-order multiplier step")
	}

	var doc map[string]any
	code, raw := doJSON(t, http.MethodGet, ts.URL+"/metrics?format=json", nil, &doc)
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	num := func(key string) float64 {
		v, ok := doc[key].(float64)
		if !ok {
			t.Fatalf("metric %q missing or not a number in %s", key, raw)
		}
		return v
	}
	hist, ok := doc["edgealloc_solver_step_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("edgealloc_solver_step_seconds missing in %s", raw)
	}
	if got := hist["count"].(float64); got != horizon {
		t.Errorf("step histogram count = %g, want %d", got, horizon)
	}
	if got := hist["sum"].(float64); math.Abs(got-wantSeconds) > 1e-9*(1+wantSeconds) {
		t.Errorf("step histogram sum = %g, responses sum to %g", got, wantSeconds)
	}
	if got := num("edgealloc_solver_steps_total"); got != horizon {
		t.Errorf("steps_total = %g, want %d", got, horizon)
	}
	if got := num("edgealloc_solver_alm_outer_iterations_total"); got != float64(wantOuter) {
		t.Errorf("outer iterations = %g, responses sum to %d", got, wantOuter)
	}
	if got := num("edgealloc_solver_inner_iterations_total"); got != float64(wantInner) {
		t.Errorf("inner iterations = %g, responses sum to %d", got, wantInner)
	}
	if got := num("edgealloc_serve_slots_total"); got != horizon {
		t.Errorf("serve slots_total = %g, want %d", got, horizon)
	}
	// Per-cloud utilization gauges exist and are sane.
	for i := 0; i < in.I; i++ {
		util := num(fmt.Sprintf("edgealloc_cloud_utilization.%d", i))
		if util < 0 || util > 1.001 {
			t.Errorf("cloud %d utilization %g outside [0, 1]", i, util)
		}
	}

	// The Prometheus rendering exposes the same series.
	code, text := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("metrics text: status %d", code)
	}
	for _, want := range []string{
		"# TYPE edgealloc_solver_step_seconds histogram",
		fmt.Sprintf("edgealloc_solver_steps_total %d", horizon),
		"edgealloc_cloud_utilization{cloud=\"0\"}",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestSessionAPIErrors covers the structured error paths.
func TestSessionAPIErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := testInstance(t, 3, 1, 41)
	id := createSession(t, ts.URL, in)

	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id+"/schedule", nil, nil); code != http.StatusConflict {
		t.Errorf("schedule before any slot: status %d, want 409", code)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/slots",
		map[string]any{"slot": 5}, nil); code != http.StatusConflict {
		t.Errorf("out-of-order slot: status %d, want 409", code)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/slots",
		map[string]any{"opPrice": []float64{1}}, nil); code != http.StatusBadRequest {
		t.Errorf("short opPrice: status %d, want 400", code)
	}
	driveSession(t, ts.URL, id, 1)
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/slots",
		map[string]any{}, nil); code != http.StatusConflict {
		t.Errorf("post past horizon: status %d, want 409", code)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		map[string]any{"instance": json.RawMessage(`{"I":1}`)}, nil); code != http.StatusBadRequest {
		t.Errorf("invalid instance: status %d, want 400", code)
	}
	// The wire key of the retired single-precision tier is an unknown
	// field like any other (spelled in two halves so a search for the
	// deleted tier finds no Go source).
	retired := "fastMathF" + "32"
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{
		"instance": in, "options": map[string]any{retired: true},
	}, nil); code != http.StatusBadRequest || !bytes.Contains(raw, []byte(retired)) {
		t.Errorf("retired option: status %d %s, want 400 naming %s", code, raw, retired)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusNoContent {
		t.Errorf("delete: status %d, want 204", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusNotFound {
		t.Errorf("status after delete: status %d, want 404", code)
	}
}

// TestSessionTTLEviction advances the injected clock past the TTL and
// requires idle sessions to be evicted while busy ones survive.
func TestSessionTTLEviction(t *testing.T) {
	now := time.Unix(1700000000, 0)
	var clockMu sync.Mutex
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	s, ts := newTestServer(t, Config{SessionTTL: time.Minute, now: clock})

	in := testInstance(t, 3, 1, 51)
	idle := createSession(t, ts.URL, in)
	busy := createSession(t, ts.URL, in)

	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()
	// Touch the busy session at the advanced clock; the idle one expires.
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+busy, nil, nil); code != http.StatusOK {
		t.Fatalf("touch busy session: status %d", code)
	}
	if got := s.evictIdle(clock()); got != 1 {
		t.Fatalf("evictIdle evicted %d sessions, want 1", got)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+idle, nil, nil); code != http.StatusNotFound {
		t.Errorf("idle session survived eviction: status %d", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+busy, nil, nil); code != http.StatusOK {
		t.Errorf("busy session evicted: status %d", code)
	}
}

// TestSessionListCostsAndLimits exercises the bookkeeping endpoints and
// the create-side guards: listing, per-session costs, solver-option
// validation, the MaxSessions cap, and the liveness probe.
func TestSessionListCostsAndLimits(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 2})
	if s.Registry() == nil {
		t.Fatal("Registry() returned nil")
	}
	in := testInstance(t, 2, 2, 11)

	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Errorf("healthz: status %d", code)
	}

	idA := createSession(t, ts.URL, in)
	idB := createSession(t, ts.URL, in)
	var list struct {
		Sessions []string `json:"sessions"`
	}
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list sessions: status %d: %s", code, raw)
	}
	if len(list.Sessions) != 2 {
		t.Errorf("listed %d sessions, want 2: %v", len(list.Sessions), list.Sessions)
	}

	// Third create trips the MaxSessions cap with the labeled rejection.
	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, in); err != nil {
		t.Fatalf("encoding instance: %v", err)
	}
	req := map[string]any{"instance": json.RawMessage(buf.Bytes())}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", req, nil); code != http.StatusTooManyRequests {
		t.Errorf("create over session cap: status %d, want 429", code)
	}
	if got := s.mRejected.With("sessions-full").Value(); got < 1 {
		t.Errorf("sessions-full rejections = %g, want >= 1", got)
	}

	// Invalid bodies: missing instance, negative solver option.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{}, nil); code != http.StatusBadRequest {
		t.Errorf("create without instance: status %d, want 400", code)
	}
	bad := map[string]any{
		"instance": json.RawMessage(buf.Bytes()),
		"options":  map[string]any{"epsilon1": -1.0},
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", bad, nil); code != http.StatusBadRequest {
		t.Errorf("create with negative option: status %d, want 400", code)
	}

	// Costs accumulate across slots and agree with the status total.
	resps := driveSession(t, ts.URL, idA, in.T)
	var costs costsResponse
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+idA+"/costs", nil, &costs); code != http.StatusOK {
		t.Fatalf("get costs: status %d: %s", code, raw)
	}
	if costs.Slots != in.T {
		t.Errorf("costs.slots = %d, want %d", costs.Slots, in.T)
	}
	last := resps[len(resps)-1]
	if math.Abs(costs.WeightedTotal-last.Cost.RunTotal) > 1e-9*math.Abs(last.Cost.RunTotal) {
		t.Errorf("costs total %g != final slot running total %g", costs.WeightedTotal, last.Cost.RunTotal)
	}
	_ = idB
}

// TestFastMathSession drives one session with the per-session fastMath
// option and one on a daemon forced to fast math via Config, and
// requires both schedules to match a fast-math batch sim run exactly —
// the kernel tier is deterministic for a fixed instance, so the served
// path and the batch path must agree byte for byte.
func TestFastMathSession(t *testing.T) {
	const horizon = 3
	in := testInstance(t, 4, horizon, 17)
	want, err := sim.Execute(in, core.NewOnlineApprox(nil, core.Options{FastMath: true}))
	if err != nil {
		t.Fatalf("fast-math reference run: %v", err)
	}

	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, in); err != nil {
		t.Fatalf("encoding instance: %v", err)
	}

	// Per-session opt-in on a default daemon.
	_, ts := newTestServer(t, Config{})
	var created createResponse
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{
		"instance": json.RawMessage(buf.Bytes()),
		"options":  map[string]any{"fastMath": true},
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create fast-math session: status %d: %s", code, raw)
	}
	driveSession(t, ts.URL, created.ID, horizon)
	if got := fetchSchedule(t, ts.URL, created.ID); !schedulesEqual(got, want.Schedule) {
		t.Error("per-session fastMath schedule differs from fast-math batch sim")
	}

	// Daemon-level default: plain create, fast math still applies.
	_, tsFM := newTestServer(t, Config{Defaults: core.Options{FastMath: true}})
	id := createSession(t, tsFM.URL, in)
	driveSession(t, tsFM.URL, id, horizon)
	if got := fetchSchedule(t, tsFM.URL, id); !schedulesEqual(got, want.Schedule) {
		t.Error("Config.Defaults.FastMath schedule differs from fast-math batch sim")
	}

	// The fast path costs stay within the documented 1e-8 agreement of
	// the exact path.
	exact := reference(t, in)
	wantTotal := in.Total(exact.Breakdown)
	gotTotal := in.Total(want.Breakdown)
	if math.Abs(gotTotal-wantTotal) > 1e-8*(1+math.Abs(wantTotal)) {
		t.Errorf("fast-math run total %g vs exact %g beyond 1e-8", gotTotal, wantTotal)
	}
}

// TestIncrementalSession drives one session with the per-session
// incremental option and one on a daemon forced incremental via Config,
// and requires both schedules to match an incremental batch sim run
// exactly — the incremental path is deterministic for a fixed instance.
// The solve diagnostics must surface the frozen-user accounting on the
// wire: with a loose gate, slots after the first hold every non-moving
// user frozen.
func TestIncrementalSession(t *testing.T) {
	const horizon = 3
	in := testInstance(t, 4, horizon, 17)
	iopts := core.Options{Incremental: true, IncrementalTol: 1e3}
	want, err := sim.Execute(in, core.NewOnlineApprox(nil, iopts))
	if err != nil {
		t.Fatalf("incremental reference run: %v", err)
	}

	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, in); err != nil {
		t.Fatalf("encoding instance: %v", err)
	}

	// Per-session opt-in on a default daemon.
	_, ts := newTestServer(t, Config{})
	var created createResponse
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{
		"instance": json.RawMessage(buf.Bytes()),
		"options":  map[string]any{"incremental": true, "incrementalTol": 1e3},
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create incremental session: status %d: %s", code, raw)
	}
	slots := driveSession(t, ts.URL, created.ID, horizon)
	if got := fetchSchedule(t, ts.URL, created.ID); !schedulesEqual(got, want.Schedule) {
		t.Error("per-session incremental schedule differs from incremental batch sim")
	}
	frozen := 0
	for _, sr := range slots {
		frozen += sr.Solve.FrozenUsers
	}
	if frozen == 0 {
		t.Error("no slot response reported frozen users despite the loose gate")
	}

	// Daemon-level default: plain create, incremental still applies.
	_, tsIn := newTestServer(t, Config{Defaults: iopts})
	id := createSession(t, tsIn.URL, in)
	driveSession(t, tsIn.URL, id, horizon)
	if got := fetchSchedule(t, tsIn.URL, id); !schedulesEqual(got, want.Schedule) {
		t.Error("Config.Defaults.Incremental schedule differs from incremental batch sim")
	}

	// A negative gate tolerance is rejected at create time.
	code, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{
		"instance": json.RawMessage(buf.Bytes()),
		"options":  map[string]any{"incremental": true, "incrementalTol": -1},
	}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("negative incrementalTol: status %d, want 400", code)
	}
}

// TestCreateRefusesIncrementalShards: "incremental" and "shards" do not
// compose, so a create that ends up with both is a 400 naming both keys —
// whether the request names the pair itself or the daemon's defaults
// complete it — and a plain create on a sharded daemon still succeeds.
func TestCreateRefusesIncrementalShards(t *testing.T) {
	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, testInstance(t, 4, 2, 17)); err != nil {
		t.Fatalf("encoding instance: %v", err)
	}
	for _, tc := range []struct {
		name     string
		defaults core.Options
		options  map[string]any
	}{
		{"request names both", core.Options{}, map[string]any{"shards": 2, "incremental": true}},
		{"sharded daemon", core.Options{Shards: 2}, map[string]any{"incremental": true}},
		{"incremental daemon", core.Options{Incremental: true}, map[string]any{"shards": 2}},
	} {
		_, ts := newTestServer(t, Config{Defaults: tc.defaults})
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{
			"instance": json.RawMessage(buf.Bytes()), "options": tc.options,
		}, nil)
		if code != http.StatusBadRequest || !bytes.Contains(raw, []byte("incremental")) ||
			!bytes.Contains(raw, []byte("shards")) {
			t.Errorf("%s: status %d: %s, want a 400 naming both keys", tc.name, code, raw)
		}
	}
	_, ts := newTestServer(t, Config{Defaults: core.Options{Shards: 2}})
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{
		"instance": json.RawMessage(buf.Bytes()),
	}, nil); code != http.StatusCreated {
		t.Errorf("plain create on a sharded daemon: status %d: %s", code, raw)
	}
}
