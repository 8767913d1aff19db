package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(2.5)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %g, want 3.5", got)
	}
	g := r.Gauge("g", "help")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
	// Re-registering the same shape returns the same instrument.
	if r.Counter("c_total", "help") != c {
		t.Error("re-registered counter is a different instance")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 56.05 {
		t.Errorf("sum = %g, want 56.05", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE h_seconds histogram",
		`h_seconds_bucket{le="0.1"} 1`,
		`h_seconds_bucket{le="1"} 3`,
		`h_seconds_bucket{le="10"} 4`,
		`h_seconds_bucket{le="+Inf"} 5`,
		"h_seconds_sum 56.05",
		"h_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs_total", "help", "code")
	v.With("200").Add(3)
	v.With("429").Inc()
	if v.With("200") != v.With("200") {
		t.Error("With returns distinct instances for one label value")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`reqs_total{code="200"} 3`,
		`reqs_total{code="429"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestShapeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "help")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x", "help")
}

func TestHandlerFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help").Add(2)
	r.GaugeVec("u", "help", "cloud").With("0").Set(0.5)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default content type %q, want text/plain", ct)
	}
	if !strings.Contains(rec.Body.String(), "c_total 2") {
		t.Errorf("prometheus body missing counter:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("json body: %v", err)
	}
	if got := doc["c_total"]; got != 2.0 {
		t.Errorf("json c_total = %v, want 2", got)
	}
	if got := doc["u.0"]; got != 0.5 {
		t.Errorf("json u.0 = %v, want 0.5", got)
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	h := r.Histogram("h", "help", nil)
	v := r.CounterVec("l_total", "help", "k")
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				c.Inc()
				h.Observe(0.01)
				v.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Errorf("counter = %g, want %d", got, workers*each)
	}
	if h.Count() != workers*each {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*each)
	}
	if got := v.With("a").Value(); got != workers*each {
		t.Errorf("labeled counter = %g, want %d", got, workers*each)
	}
}

func TestSolverMetricsNilSafe(t *testing.T) {
	var m *SolverMetrics
	// Every hook must be a no-op on the nil bundle.
	m.ObserveStep(0.1, 2, 30, true)
	m.ObserveCandidates(1, 2, 3)
	m.ObserveShards(2, 1e-6, []float64{0.1})
	m.ObserveShardRPCAttempt(0.01, 100, true)
	m.CountShardRPCFallback()
	m.ObserveIncremental(4, 1, 0.02)
	m.SetCloudUtilization(0, 0.5)
	m.CountViolation("capacity")
	m.ObserveRun(1.5)
}

func TestSolverMetricsRecords(t *testing.T) {
	r := NewRegistry()
	m := NewSolverMetrics(r)
	m.ObserveStep(0.1, 2, 30, true)
	m.ObserveStep(0.2, 3, 40, false)
	m.ObserveCandidates(2, 5, 17)
	m.ObserveShards(3, 2e-6, []float64{0.25, 0.5})
	m.ObserveShardRPCAttempt(0.01, 100, false)
	m.ObserveShardRPCAttempt(0.02, 50, true)
	m.CountShardRPCFallback()
	m.ObserveIncremental(40, 2, 0.03)
	m.SetCloudUtilization(1, 0.75)
	m.CountViolation("capacity")
	m.ObserveRun(1.5)

	if got := m.Steps.Value(); got != 2 {
		t.Errorf("steps = %g, want 2", got)
	}
	if got := m.NonConverged.Value(); got != 1 {
		t.Errorf("nonconverged = %g, want 1", got)
	}
	if got := m.OuterIters.Value(); got != 5 {
		t.Errorf("outer = %g, want 5", got)
	}
	if got := m.InnerIters.Value(); got != 70 {
		t.Errorf("inner = %g, want 70", got)
	}
	if got := m.CandNNZ.Value(); got != 17 {
		t.Errorf("nnz = %g, want 17", got)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"shard iters", m.ShardIters.Value(), 3},
		{"shard residual", m.ShardResid.Value(), 2e-6},
		{"shard block solves", float64(m.ShardSolve.Count()), 2},
		{"rpc calls", m.RPCCalls.Value(), 2},
		{"rpc retries", m.RPCRetries.Value(), 1},
		{"rpc bytes", m.RPCBytes.Value(), 150},
		{"rpc fallbacks", m.RPCFallbacks.Value(), 1},
		{"incr frozen", m.IncrFrozen.Value(), 40},
		{"incr readmitted", m.IncrReadmit.Value(), 2},
		{"incr solves", float64(m.IncrSolve.Count()), 1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
	if got := m.CloudUtil.With("1").Value(); got != 0.75 {
		t.Errorf("utilization = %g, want 0.75", got)
	}
	if got := m.ConformViol.With("capacity").Value(); got != 1 {
		t.Errorf("violations = %g, want 1", got)
	}
	if got := m.SimRuns.Value(); got != 1 {
		t.Errorf("sim runs = %g, want 1", got)
	}
	// Recompute the expected sum with runtime float adds (the untyped
	// constant 0.1+0.2 folds at higher precision and differs in the last
	// bit from the histogram's sequential accumulation).
	secs := []float64{0.1, 0.2}
	want := 0.0
	for _, s := range secs {
		want += s
	}
	if got := m.StepLatency.Sum(); got != want {
		t.Errorf("latency sum = %g, want %g", got, want)
	}
}
