package shardrpc

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgealloc/internal/telemetry"
)

// fastClient returns client options that keep retry backoff out of the
// test clock.
func fastClient() ClientOptions {
	return ClientOptions{Timeout: 5 * time.Second, Backoff: time.Millisecond}
}

func TestClientRetriesServerErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	c := NewClient(srv.URL, fastClient())
	if err := c.Commit(context.Background(), "b0", 1); err != nil {
		t.Fatalf("Commit after two 500s: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (two retries)", got)
	}
}

func TestClientRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, fastClient()) // Retries=0 → default 2
	err := c.Commit(context.Background(), "b0", 1)
	if err == nil {
		t.Fatal("Commit succeeded against an always-503 worker")
	}
	if !strings.Contains(err.Error(), "retries exhausted") {
		t.Fatalf("error %q does not mention exhausted retries", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

func TestClientNegativeRetriesDisables(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	opts := fastClient()
	opts.Retries = -1
	c := NewClient(srv.URL, opts)
	if err := c.Commit(context.Background(), "b0", 1); err == nil {
		t.Fatal("Commit succeeded against an always-500 worker")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (retries disabled)", got)
	}
}

func TestClientDoesNotRetryStructuredErrors(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		body       string
		wantCode   string
		unknownBlk bool
	}{
		{"unknown block", http.StatusNotFound, `{"code":"unknown_block","error":"not hosted"}`, CodeUnknownBlock, true},
		{"bad request", http.StatusBadRequest, `{"code":"bad_request","error":"broken spec"}`, CodeBadRequest, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(tc.status)
				w.Write([]byte(tc.body))
			}))
			defer srv.Close()

			c := NewClient(srv.URL, fastClient())
			_, err := c.Solve(context.Background(), "b0", 1, 0, 4, []float64{1})
			if err == nil {
				t.Fatal("Solve succeeded against an erroring worker")
			}
			if got := calls.Load(); got != 1 {
				t.Fatalf("attempts = %d, want 1 (structured errors are not retried)", got)
			}
			var e *Error
			if !errors.As(err, &e) || e.Code != tc.wantCode {
				t.Fatalf("error = %v, want *Error code %s", err, tc.wantCode)
			}
			if errors.Is(err, ErrUnknownBlock) != tc.unknownBlk {
				t.Fatalf("errors.Is(err, ErrUnknownBlock) = %v, want %v", !tc.unknownBlk, tc.unknownBlk)
			}
		})
	}
}

func TestClientMapsOpaqueErrorBodies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "panic: worker exploded", http.StatusBadGateway)
	}))
	defer srv.Close()

	opts := fastClient()
	opts.Retries = -1
	c := NewClient(srv.URL, opts)
	err := c.Commit(context.Background(), "b0", 1)
	if err == nil {
		t.Fatal("Commit succeeded against a 502 worker")
	}
	var e *Error
	if !errors.As(err, &e) || e.Code != CodeInternal {
		t.Fatalf("error = %v, want internal *Error", err)
	}
	if !strings.Contains(e.Msg, "HTTP 502") {
		t.Fatalf("error %q does not carry the HTTP status", e.Msg)
	}
}

func TestClientAttemptTimeout(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)

	opts := fastClient()
	opts.Timeout = 20 * time.Millisecond
	opts.Retries = -1
	c := NewClient(srv.URL, opts)
	if err := c.Commit(context.Background(), "b0", 1); err == nil {
		t.Fatal("Commit succeeded against a hung worker")
	}
}

func TestClientRecordsAttemptTelemetry(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	reg := telemetry.NewRegistry()
	m := telemetry.NewSolverMetrics(reg)
	opts := fastClient()
	opts.Metrics = m
	c := NewClient(srv.URL, opts)
	if err := c.Commit(context.Background(), "b0", 1); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := m.RPCCalls.Value(); got != 2 {
		t.Fatalf("calls counter = %v, want 2", got)
	}
	if got := m.RPCRetries.Value(); got != 1 {
		t.Fatalf("retries counter = %v, want 1", got)
	}
	if m.RPCBytes.Value() <= 0 {
		t.Fatal("bytes counter did not advance")
	}
}

// hookHost is a scriptable in-memory Host: it stores pushed specs keyed
// by ID, echoes the solve target back as the totals (so tests can tell a
// remote solve from a mirror fallback), and returns spec-derived state
// with a +1 offset (so tests can tell synced state from the push).
type hookHost struct {
	mu       sync.Mutex
	specs    map[string]*BlockSpec
	begins   int
	solves   int
	states   int
	preSolve func(h *hookHost, req *SolveRequest) error
	preState func(h *hookHost, req *StateRequest) error
	mangle   func(resp *SolveResponse)
}

func newHookHost() *hookHost { return &hookHost{specs: map[string]*BlockSpec{}} }

func (h *hookHost) forget(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.specs, id)
}

func (h *hookHost) lookup(id string, slot, gen int) (*BlockSpec, error) {
	s, ok := h.specs[id]
	if !ok || s.Slot != slot || s.Gen != gen {
		return nil, &Error{Code: CodeUnknownBlock, Msg: "not hosted"}
	}
	return s, nil
}

func (h *hookHost) BeginSlot(spec *BlockSpec) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.begins++
	h.specs[spec.ID] = spec
	return nil
}

func (h *hookHost) Solve(req *SolveRequest) (*SolveResponse, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.solves++
	if h.preSolve != nil {
		if err := h.preSolve(h, req); err != nil {
			return nil, err
		}
	}
	s, err := h.lookup(req.ID, req.Slot, req.Gen)
	if err != nil {
		return nil, err
	}
	resp := &SolveResponse{Totals: append([]float64(nil), req.Target[:s.NI]...), Outer: 7, Inner: 42}
	if h.mangle != nil {
		h.mangle(resp)
	}
	return resp, nil
}

func (h *hookHost) State(req *StateRequest) (*StateResponse, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.states++
	if h.preState != nil {
		if err := h.preState(h, req); err != nil {
			return nil, err
		}
	}
	s, err := h.lookup(req.ID, req.Slot, req.Gen)
	if err != nil {
		return nil, err
	}
	resp := &StateResponse{X: make([]float64, len(s.Warm)), Theta: make([]float64, len(s.Theta))}
	for i, v := range s.Warm {
		resp.X[i] = v + 1
	}
	for j, v := range s.Theta {
		resp.Theta[j] = v + 1
	}
	return resp, nil
}

func (h *hookHost) Commit(req *CommitRequest) error { return nil }

func (h *hookHost) counts() (begins, solves, states int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.begins, h.solves, h.states
}

// fakeMirror is a scriptable Mirror: its local Solve writes the sentinel
// -1 into every total, so a test can tell whether a RemoteBlock solved
// remotely (target echo) or fell back.
type fakeMirror struct {
	solveCalls  int
	specCalls   int
	x, theta    []float64
	setStateErr error
}

func newFakeMirror() *fakeMirror { return &fakeMirror{} }

func (m *fakeMirror) Solve(rho float64, target, totals []float64) (int, int, error) {
	m.solveCalls++
	for i := range totals {
		totals[i] = -1
	}
	return 1, 1, nil
}

func (m *fakeMirror) WarmTotalsInto(totals []float64) {
	for i := range totals {
		totals[i] = 0.25
	}
}

func (m *fakeMirror) Spec(id string, slot, gen int) *BlockSpec {
	m.specCalls++
	s := validSpec()
	s.ID, s.Slot, s.Gen = id, slot, gen
	return s
}

func (m *fakeMirror) SetState(x, theta []float64) error {
	if m.setStateErr != nil {
		return m.setStateErr
	}
	m.x = append(m.x[:0], x...)
	m.theta = append(m.theta[:0], theta...)
	return nil
}

// remoteFixture wires a RemoteBlock to a hookHost behind a real HTTP
// server.
func remoteFixture(t *testing.T, opts ClientOptions) (*RemoteBlock, *hookHost, *fakeMirror, *telemetry.SolverMetrics, *httptest.Server) {
	t.Helper()
	host := newHookHost()
	srv := httptest.NewServer(NewServer(host))
	t.Cleanup(srv.Close)
	m := telemetry.NewSolverMetrics(telemetry.NewRegistry())
	opts.Metrics = m
	mirror := newFakeMirror()
	rb := NewRemoteBlock(NewClient(srv.URL, opts), "blk", mirror)
	return rb, host, mirror, m, srv
}

func TestRemoteBlockSolvesRemotely(t *testing.T) {
	rb, host, mirror, _, _ := remoteFixture(t, fastClient())
	rb.BeginSlot(1, context.Background())

	target := []float64{1.5, 2.5}
	totals := make([]float64, 2)
	outer, inner, err := rb.Solve(4, target, totals)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if outer != 7 || inner != 42 {
		t.Fatalf("iteration counts = (%d, %d), want worker's (7, 42)", outer, inner)
	}
	if totals[0] != 1.5 || totals[1] != 2.5 {
		t.Fatalf("totals = %v, want the remote echo of the target", totals)
	}
	if mirror.solveCalls != 0 {
		t.Fatalf("mirror solved %d times, want 0", mirror.solveCalls)
	}
	begins, solves, _ := host.counts()
	if begins != 1 || solves != 1 {
		t.Fatalf("worker saw begins=%d solves=%d, want 1/1 (lazy push then solve)", begins, solves)
	}

	// A second solve in the same (slot, gen) reuses the pushed spec.
	if _, _, err := rb.Solve(4, target, totals); err != nil {
		t.Fatalf("second Solve: %v", err)
	}
	if begins, solves, _ = host.counts(); begins != 1 || solves != 2 {
		t.Fatalf("worker saw begins=%d solves=%d, want 1/2 (no re-push)", begins, solves)
	}
}

func TestRemoteBlockRepushesOnUnknownBlock(t *testing.T) {
	rb, host, mirror, _, _ := remoteFixture(t, fastClient())
	rb.BeginSlot(1, context.Background())

	totals := make([]float64, 2)
	if _, _, err := rb.Solve(4, []float64{1, 2}, totals); err != nil {
		t.Fatalf("first Solve: %v", err)
	}

	// Worker "restarts": it forgets the block between solves.
	host.forget("blk")
	if _, _, err := rb.Solve(4, []float64{3, 4}, totals); err != nil {
		t.Fatalf("Solve after worker restart: %v", err)
	}
	if totals[0] != 3 || totals[1] != 4 {
		t.Fatalf("totals = %v, want the remote echo after re-push", totals)
	}
	if mirror.solveCalls != 0 {
		t.Fatal("recoverable restart fell back to the mirror")
	}
	if rb.Dead() {
		t.Fatal("recoverable restart folded the block")
	}
	begins, solves, _ := host.counts()
	if begins != 2 || solves != 3 {
		t.Fatalf("worker saw begins=%d solves=%d, want 2/3 (push, solve, failed solve, re-push, solve)", begins, solves)
	}
}

func TestRemoteBlockFoldsWhenWorkerDies(t *testing.T) {
	opts := fastClient()
	opts.Retries = -1
	rb, _, mirror, metrics, srv := remoteFixture(t, opts)
	rb.BeginSlot(1, context.Background())
	srv.Close() // worker gone before the first solve

	totals := make([]float64, 2)
	if _, _, err := rb.Solve(4, []float64{1, 2}, totals); err != nil {
		t.Fatalf("Solve must fall back, not fail: %v", err)
	}
	if totals[0] != -1 {
		t.Fatalf("totals = %v, want the mirror sentinel", totals)
	}
	if !rb.Dead() || rb.FoldErr() == nil {
		t.Fatal("block did not fold after a dead worker")
	}
	if got := metrics.RPCFallbacks.Value(); got != 1 {
		t.Fatalf("fallback counter = %v, want 1", got)
	}

	// Subsequent solves in the slot stay local without touching the net.
	if _, _, err := rb.Solve(4, []float64{1, 2}, totals); err != nil {
		t.Fatalf("folded Solve: %v", err)
	}
	if mirror.solveCalls != 2 {
		t.Fatalf("mirror solves = %d, want 2", mirror.solveCalls)
	}
	if got := metrics.RPCFallbacks.Value(); got != 1 {
		t.Fatalf("fold counted more than once: %v", got)
	}
	// SyncState on a folded block is a no-op.
	if err := rb.SyncState(); err != nil {
		t.Fatalf("SyncState on a folded block: %v", err)
	}
}

func TestRemoteBlockFoldsOnShortTotals(t *testing.T) {
	rb, host, mirror, _, _ := remoteFixture(t, fastClient())
	host.mangle = func(resp *SolveResponse) { resp.Totals = resp.Totals[:1] }
	rb.BeginSlot(1, context.Background())

	totals := make([]float64, 2)
	if _, _, err := rb.Solve(4, []float64{1, 2}, totals); err != nil {
		t.Fatalf("Solve must fall back, not fail: %v", err)
	}
	if !rb.Dead() {
		t.Fatal("block did not fold on a totals length mismatch")
	}
	if mirror.solveCalls != 1 || totals[0] != -1 {
		t.Fatal("mismatched response was not discarded in favor of the mirror")
	}
}

func TestRemoteBlockFoldProbing(t *testing.T) {
	opts := fastClient()
	opts.Retries = -1
	rb, _, mirror, _, srv := remoteFixture(t, opts)
	srv.Close()

	totals := make([]float64, 2)
	slot := 1
	rb.BeginSlot(slot, context.Background())
	rb.Solve(4, []float64{1, 2}, totals) // folds
	if !rb.Dead() {
		t.Fatal("block did not fold")
	}

	// The next foldProbeSlots slot boundaries re-probe (and re-fold,
	// since the worker stays dark)...
	for probe := 0; probe < foldProbeSlots; probe++ {
		slot++
		rb.BeginSlot(slot, context.Background())
		if rb.Dead() {
			t.Fatalf("probe %d: BeginSlot did not re-probe", probe)
		}
		rb.Solve(4, []float64{1, 2}, totals)
		if !rb.Dead() {
			t.Fatalf("probe %d: block did not re-fold", probe)
		}
	}

	// ...after which the fold is permanent.
	slot++
	rb.BeginSlot(slot, context.Background())
	if !rb.Dead() {
		t.Fatal("fold did not become permanent after the probe budget")
	}
	before := mirror.solveCalls
	rb.Solve(4, []float64{1, 2}, totals)
	if mirror.solveCalls != before+1 {
		t.Fatal("permanently folded block did not solve locally")
	}
}

func TestRemoteBlockRecoversDuringProbe(t *testing.T) {
	opts := fastClient()
	opts.Retries = -1
	host := newHookHost()
	var down atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		NewServer(host).ServeHTTP(w, r)
	}))
	defer srv.Close()
	mirror := newFakeMirror()
	rb := NewRemoteBlock(NewClient(srv.URL, opts), "blk", mirror)

	totals := make([]float64, 2)
	down.Store(true)
	rb.BeginSlot(1, context.Background())
	rb.Solve(4, []float64{1, 2}, totals) // folds
	if !rb.Dead() {
		t.Fatal("block did not fold")
	}

	down.Store(false) // worker restarts before the next slot
	rb.BeginSlot(2, context.Background())
	if _, _, err := rb.Solve(4, []float64{5, 6}, totals); err != nil {
		t.Fatalf("probe Solve: %v", err)
	}
	if rb.Dead() || totals[0] != 5 {
		t.Fatalf("probe did not rejoin the worker: dead=%v totals=%v", rb.Dead(), totals)
	}

	// Rejoining resets the probe budget: a later outage gets fresh probes.
	down.Store(true)
	rb.BeginSlot(3, context.Background())
	rb.Solve(4, []float64{1, 2}, totals)
	if !rb.Dead() {
		t.Fatal("block did not re-fold in the later outage")
	}
	rb.BeginSlot(4, context.Background())
	if rb.Dead() {
		t.Fatal("probe budget was not reset by the successful rejoin")
	}
}

func TestRemoteBlockSyncState(t *testing.T) {
	rb, host, mirror, _, _ := remoteFixture(t, fastClient())
	rb.BeginSlot(1, context.Background())

	// Nothing solved remotely yet: SyncState is a no-op.
	if err := rb.SyncState(); err != nil {
		t.Fatalf("idle SyncState: %v", err)
	}

	totals := make([]float64, 2)
	if _, _, err := rb.Solve(4, []float64{1, 2}, totals); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := rb.SyncState(); err != nil {
		t.Fatalf("SyncState: %v", err)
	}
	// hookHost serves warm+1 / theta+1 of the pushed spec.
	want := validSpec()
	for i, v := range want.Warm {
		if mirror.x[i] != v+1 {
			t.Fatalf("mirror.x = %v, want warm+1", mirror.x)
		}
	}
	for j, v := range want.Theta {
		if mirror.theta[j] != v+1 {
			t.Fatalf("mirror.theta = %v, want theta+1", mirror.theta)
		}
	}

	// Synced: a second SyncState without a new solve is a no-op.
	_, _, statesBefore := host.counts()
	if err := rb.SyncState(); err != nil {
		t.Fatalf("repeat SyncState: %v", err)
	}
	if _, _, states := host.counts(); states != statesBefore {
		t.Fatal("SyncState hit the network without a new remote solve")
	}
}

func TestRemoteBlockSyncStateUnknownBlockTwoStrikes(t *testing.T) {
	rb, host, mirror, _, _ := remoteFixture(t, fastClient())
	rb.BeginSlot(1, context.Background())

	totals := make([]float64, 2)
	// Strike one: the worker restarts after solving; the mirror keeps its
	// round-start state and the block stays remote for a re-push.
	if _, _, err := rb.Solve(4, []float64{1, 2}, totals); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	host.forget("blk")
	if err := rb.SyncState(); err == nil {
		t.Fatal("SyncState succeeded against a restarted worker")
	}
	if rb.Dead() {
		t.Fatal("one unknown-block sync failure folded the block")
	}

	// The next round re-pushes and solves remotely again.
	if _, _, err := rb.Solve(4, []float64{3, 4}, totals); err != nil {
		t.Fatalf("re-push Solve: %v", err)
	}
	if totals[0] != 3 {
		t.Fatalf("totals = %v, want remote echo", totals)
	}

	// Strike two: a second consecutive unknown-block sync failure folds.
	host.forget("blk")
	if err := rb.SyncState(); err == nil {
		t.Fatal("SyncState succeeded against a restarted worker")
	}
	if !rb.Dead() {
		t.Fatal("two consecutive unknown-block sync failures did not fold the block")
	}
	if mirror.solveCalls != 0 {
		t.Fatal("remote rounds leaked into the mirror solver")
	}
}

func TestRemoteBlockSyncStateTransportFailureFolds(t *testing.T) {
	opts := fastClient()
	opts.Retries = -1
	rb, _, _, metrics, srv := remoteFixture(t, opts)
	rb.BeginSlot(1, context.Background())

	totals := make([]float64, 2)
	if _, _, err := rb.Solve(4, []float64{1, 2}, totals); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	srv.Close() // worker dies between the solve and the state sync
	if err := rb.SyncState(); err == nil {
		t.Fatal("SyncState succeeded against a dead worker")
	}
	if !rb.Dead() {
		t.Fatal("a non-recoverable sync failure did not fold the block")
	}
	if got := metrics.RPCFallbacks.Value(); got != 1 {
		t.Fatalf("fallback counter = %v, want 1", got)
	}
}

func TestRemoteBlockSyncStateResetAfterSuccess(t *testing.T) {
	// An unknown-block miss followed by a successful sync resets the
	// strike counter: a later single miss must not fold.
	rb, host, _, _, _ := remoteFixture(t, fastClient())
	rb.BeginSlot(1, context.Background())

	totals := make([]float64, 2)
	rb.Solve(4, []float64{1, 2}, totals)
	host.forget("blk")
	rb.SyncState() // strike one

	rb.Solve(4, []float64{1, 2}, totals)
	if err := rb.SyncState(); err != nil { // success resets the counter
		t.Fatalf("SyncState: %v", err)
	}

	rb.Solve(4, []float64{1, 2}, totals)
	host.forget("blk")
	if err := rb.SyncState(); err == nil {
		t.Fatal("SyncState succeeded against a restarted worker")
	}
	if rb.Dead() {
		t.Fatal("strike counter was not reset by the successful sync")
	}
}

func TestRemoteBlockInvalidateRepushes(t *testing.T) {
	rb, host, _, _, _ := remoteFixture(t, fastClient())
	rb.BeginSlot(1, context.Background())

	totals := make([]float64, 2)
	rb.Solve(4, []float64{1, 2}, totals)
	rb.Invalidate() // candidate relayout: the pushed spec is stale
	if _, _, err := rb.Solve(4, []float64{3, 4}, totals); err != nil {
		t.Fatalf("Solve after Invalidate: %v", err)
	}
	begins, _, _ := host.counts()
	if begins != 2 {
		t.Fatalf("worker saw %d pushes, want 2 (Invalidate forces a re-push)", begins)
	}
	if totals[0] != 3 {
		t.Fatalf("totals = %v, want remote echo under the new generation", totals)
	}
}

func TestRemoteBlockWarmTotalsDelegates(t *testing.T) {
	rb, host, _, _, _ := remoteFixture(t, fastClient())
	rb.BeginSlot(1, context.Background())
	totals := make([]float64, 2)
	rb.WarmTotalsInto(totals)
	if totals[0] != 0.25 || totals[1] != 0.25 {
		t.Fatalf("warm totals = %v, want the mirror's", totals)
	}
	if begins, solves, states := host.counts(); begins+solves+states != 0 {
		t.Fatal("WarmTotalsInto touched the network")
	}
}

func TestServerRejectsWrongMethodAndPath(t *testing.T) {
	srv := httptest.NewServer(NewServer(newHookHost()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/shard/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET solve = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/shard/nope", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST nope = %d, want 404", resp.StatusCode)
	}
}

func TestServerValidatesSpecs(t *testing.T) {
	srv := httptest.NewServer(NewServer(newHookHost()))
	defer srv.Close()
	c := NewClient(srv.URL, fastClient())

	bad := validSpec()
	bad.Cols[0] = 99 // out of range
	err := c.BeginSlot(context.Background(), bad)
	var e *Error
	if err == nil || !errors.As(err, &e) || e.Code != CodeBadRequest {
		t.Fatalf("begin-slot with a broken spec: err = %v, want bad_request", err)
	}
}
