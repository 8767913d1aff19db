package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"edgealloc/internal/route"
	"edgealloc/internal/scenario"
	"edgealloc/internal/serve"
)

// --- histogram -----------------------------------------------------------

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatalf("empty histogram should report zero")
	}
	// 1..1000 ms: quantiles are known up to bucket resolution (~9%).
	for ms := 1; ms <= 1000; ms++ {
		h.Record(time.Duration(ms) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d, want 1000", h.Count())
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
		{0.999, 999 * time.Millisecond},
	} {
		got := h.Quantile(tc.q)
		lo := time.Duration(float64(tc.want) * 0.90)
		hi := time.Duration(float64(tc.want) * 1.12)
		if got < lo || got > hi {
			t.Fatalf("q%.3f = %v, want within [%v, %v]", tc.q, got, lo, hi)
		}
	}
	if h.Max() != 1000*time.Millisecond {
		t.Fatalf("max %v, want 1s", h.Max())
	}
	// The top quantile never exceeds the true max.
	if h.Quantile(1) > h.Max() {
		t.Fatalf("q1 %v exceeds max %v", h.Quantile(1), h.Max())
	}
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("reset did not clear the histogram")
	}
}

func TestHistogramEdges(t *testing.T) {
	h := &Histogram{}
	h.Record(0)                // below the first bucket
	h.Record(10 * time.Minute) // beyond the last bucket
	if h.Count() != 2 {
		t.Fatalf("count %d, want 2", h.Count())
	}
	if got := h.Quantile(1); got != 10*time.Minute {
		t.Fatalf("overflow quantile %v, want the recorded max", got)
	}
}

func TestBucketMonotone(t *testing.T) {
	prev := -1
	for d := time.Microsecond; d < time.Minute; d = d * 5 / 4 {
		b := bucketOf(d)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %v: %d < %d", d, b, prev)
		}
		prev = b
		if up := bucketUpper(b); up < d {
			t.Fatalf("bucketUpper(%d)=%v below sample %v", b, up, d)
		}
	}
}

// --- end-to-end open loop ------------------------------------------------

// TestRunnerOpenLoop drives a real in-process edged briefly and checks
// the bookkeeping: slot-advances complete, latencies land in the
// histogram-backed percentiles, sessions are reborn past the horizon,
// and teardown empties the daemon.
func TestRunnerOpenLoop(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 4, Horizon: 3, Seed: 1})
	if err != nil {
		t.Fatalf("building instance: %v", err)
	}
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Close() })

	r := &Runner{Base: ts.URL, Sessions: 4, Instance: in}
	ctx := context.Background()
	if err := r.Setup(ctx); err != nil {
		t.Fatalf("setup: %v", err)
	}
	step, err := r.RunStep(ctx, 200, 2*time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if step.Completed == 0 {
		t.Fatalf("no slot-advances completed: %+v", step)
	}
	if step.Errors != 0 {
		t.Fatalf("%d errors during open loop: %+v", step.Errors, step)
	}
	if step.P50Ns <= 0 || step.P99Ns < step.P50Ns || step.P999Ns < step.P99Ns {
		t.Fatalf("percentiles not ordered: %+v", step)
	}
	if step.Achieved <= 0 {
		t.Fatalf("achieved rate not measured: %+v", step)
	}
	// 4 sessions x 3 slots = 12 advances; more completions than that
	// proves sessions were reborn to sustain the population.
	if step.Completed > 12 {
		reborn := false
		for _, g := range r.gen {
			if g > 0 {
				reborn = true
			}
		}
		if !reborn {
			t.Fatalf("%d completions but no session rebirth", step.Completed)
		}
	}
	r.Teardown(ctx)
}

// TestRunnerResolveDirectDial puts a router in front of two replicas
// and checks that Resolve mode looks placement up once per session and
// then bypasses the router entirely: every session is created on its
// rendezvous owner, slot-advances dial the owner, and teardown cleans
// the owners out.
func TestRunnerResolveDirectDial(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 4, Horizon: 3, Seed: 1})
	if err != nil {
		t.Fatalf("building instance: %v", err)
	}
	replicas := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i := range replicas {
		s := serve.New(serve.Config{})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { _ = s.Close() })
		replicas[i] = ts
		urls[i] = ts.URL
	}
	rt, err := route.New(route.Config{Replicas: urls})
	if err != nil {
		t.Fatalf("building router: %v", err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	r := &Runner{Base: front.URL, Sessions: 4, Instance: in, Resolve: true}
	ctx := context.Background()
	if err := r.Setup(ctx); err != nil {
		t.Fatalf("setup: %v", err)
	}
	for k, id := range r.ids {
		if want := rt.OwnerOf(id); r.targets[k] != want {
			t.Fatalf("session %s resolved to %s, owner is %s", id, r.targets[k], want)
		}
	}
	// Each session must be registered on its owner replica, reachable
	// without the router.
	found := 0
	for _, ts := range replicas {
		var resp struct {
			Sessions []string `json:"sessions"`
		}
		res, err := http.Get(ts.URL + "/v1/sessions")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		for _, id := range resp.Sessions {
			if rt.OwnerOf(id) != ts.URL {
				t.Fatalf("session %s lives on %s, owner is %s", id, ts.URL, rt.OwnerOf(id))
			}
			found++
		}
	}
	if found != 4 {
		t.Fatalf("found %d sessions on the replicas, want 4", found)
	}

	step, err := r.RunStep(ctx, 100, time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if step.Completed == 0 || step.Errors != 0 {
		t.Fatalf("direct-dial open loop: %+v", step)
	}
	// Teardown deletes the live population (finished generations stay
	// behind, as in forwarding mode) — the current ids must be gone.
	r.Teardown(ctx)
	live := map[string]bool{}
	for _, id := range r.ids {
		live[id] = true
	}
	for _, ts := range replicas {
		var resp struct {
			Sessions []string `json:"sessions"`
		}
		res, err := http.Get(ts.URL + "/v1/sessions")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		for _, id := range resp.Sessions {
			if live[id] {
				t.Fatalf("teardown left live session %s on %s", id, ts.URL)
			}
		}
	}

	// Resolve against a bare replica (no /admin/owner) fails setup loudly.
	bad := &Runner{Base: urls[0], Sessions: 1, Instance: in, Resolve: true}
	if err := bad.Setup(ctx); err == nil {
		t.Fatalf("resolve against a non-router target must fail setup")
	}
}

func TestRunnerValidation(t *testing.T) {
	if err := (&Runner{Sessions: 0}).Setup(context.Background()); err == nil {
		t.Fatalf("zero sessions must fail setup")
	}
	if err := (&Runner{Sessions: 1}).Setup(context.Background()); err == nil {
		t.Fatalf("nil instance must fail setup")
	}
	r := &Runner{Sessions: 1}
	if _, err := r.RunStep(context.Background(), 0, time.Second); err == nil {
		t.Fatalf("zero rate must fail")
	}
}
