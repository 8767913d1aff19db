// Package loadgen is the sustained-load harness for the serving tier:
// an open-loop generator that drives many concurrent allocation
// sessions against an edged daemon (or an edgerouter front) at a fixed
// offered rate of slot-advances per second, measuring the round-trip
// latency of every advance into SLO histograms (p50/p99/p999) and
// sweeping the rate to find the saturation knee. It is an exploration
// tool for a live deployment; the repository's serving number is the
// serve_stream workload of `bash bench/run.sh`.
//
// Open loop means arrivals do not wait for completions: ticks fire on
// the offered-rate clock and a tick that finds every session busy is
// counted as starvation instead of slowing down — so queueing delay
// shows up in the latency tail, not in a silently reduced rate.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"edgealloc/internal/model"
)

// Runner drives one target with a fixed session population. Sessions
// are created with client-supplied ids (so placement through a router
// is deterministic) and replay the same instance template; a session
// that finishes its horizon is replaced by a fresh one, keeping the
// population constant for the whole run.
type Runner struct {
	// Base is the target base URL (edged or edgerouter).
	Base string
	// Sessions is the concurrent session population.
	Sessions int
	// Instance is the per-session replay template.
	Instance *model.Instance
	// Resolve treats Base as an edgerouter front: each session's owning
	// replica is looked up once via GET Base/admin/owner?session=<id>
	// and all traffic for that session dials the owner directly, taking
	// the router's forwarding copy off the hot path while leaving
	// placement decisions with the router. Rebirths re-resolve, since a
	// fresh id may hash to a different owner.
	Resolve bool

	instRaw json.RawMessage
	ids     []string
	next    []int    // next slot per population index
	gen     []int    // rebirth count per population index
	targets []string // direct-dial base per population index (Resolve mode)
}

// Step is one rate point of a sweep: offered load, what the target
// actually absorbed, and the latency distribution of the absorbed
// slot-advances.
type Step struct {
	// Rate is the offered load, slot-advances per second.
	Rate float64
	// Seconds is the measured wall-clock of the step.
	Seconds float64
	// Completed counts successful slot-advances.
	Completed uint64
	// Achieved is Completed/Seconds.
	Achieved float64
	// Shed counts 429 responses (admission control shedding load).
	Shed uint64
	// Errors counts non-200, non-429 outcomes.
	Errors uint64
	// Starved counts ticks that found every session busy: offered
	// arrivals the open loop could not issue. Starved > 0 at a rate
	// point means the target is past saturation there.
	Starved uint64
	// P50Ns, P99Ns, P999Ns, MaxNs are latency quantiles of one
	// slot-advance round trip, in nanoseconds.
	P50Ns  float64
	P99Ns  float64
	P999Ns float64
	MaxNs  float64
}

// client performs every request a Runner makes.
var client = &http.Client{Timeout: 2 * time.Minute}

// baseFor is the base URL session traffic for population index k uses:
// the resolved owner in Resolve mode, the configured target otherwise.
func (r *Runner) baseFor(k int) string {
	if r.targets != nil && r.targets[k] != "" {
		return r.targets[k]
	}
	return r.Base
}

// resolveOwner asks the router which replica owns id.
func (r *Runner) resolveOwner(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		r.Base+"/admin/owner?session="+url.QueryEscape(id), nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", fmt.Errorf("loadgen: resolving owner of %s: %w", id, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("loadgen: resolving owner of %s: status %d: %s",
			id, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var doc struct {
		Owner string `json:"owner"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return "", fmt.Errorf("loadgen: decoding owner of %s: %w", id, err)
	}
	if doc.Owner == "" {
		return "", fmt.Errorf("loadgen: router reported no owner for %s", id)
	}
	return doc.Owner, nil
}

// Setup encodes the instance template and creates the session
// population.
func (r *Runner) Setup(ctx context.Context) error {
	if r.Sessions <= 0 {
		return fmt.Errorf("loadgen: Sessions must be positive")
	}
	if r.Instance == nil {
		return fmt.Errorf("loadgen: Instance required")
	}
	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, r.Instance); err != nil {
		return fmt.Errorf("loadgen: encoding instance: %w", err)
	}
	r.instRaw = json.RawMessage(buf.Bytes())
	r.ids = make([]string, r.Sessions)
	r.next = make([]int, r.Sessions)
	r.gen = make([]int, r.Sessions)
	if r.Resolve {
		r.targets = make([]string, r.Sessions)
	}
	for k := 0; k < r.Sessions; k++ {
		if err := r.createSession(ctx, k); err != nil {
			return err
		}
	}
	return nil
}

// Teardown deletes the current session population (best effort).
func (r *Runner) Teardown(ctx context.Context) {
	for k, id := range r.ids {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
			r.baseFor(k)+"/v1/sessions/"+id, nil)
		if err != nil {
			continue
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// createSession registers population slot k under a fresh id.
func (r *Runner) createSession(ctx context.Context, k int) error {
	id := fmt.Sprintf("load-%d-g%d", k, r.gen[k])
	if r.Resolve {
		owner, err := r.resolveOwner(ctx, id)
		if err != nil {
			return err
		}
		r.targets[k] = owner
	}
	body, err := json.Marshal(map[string]any{"id": id, "instance": r.instRaw})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		r.baseFor(k)+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: creating session %s: %w", id, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("loadgen: creating session %s: status %d: %s",
			id, resp.StatusCode, bytes.TrimSpace(raw))
	}
	r.ids[k] = id
	r.next[k] = 0
	return nil
}

// advance posts the next slot of population index k, recording the
// outcome. Only one goroutine holds an index at a time, so next/gen
// need no locking.
func (r *Runner) advance(ctx context.Context, k int, hist *Histogram, completed, shed, errs *atomic.Uint64) {
	if r.next[k] >= r.Instance.T {
		// Horizon done: replace with a fresh session (rebirth is part of
		// the offered work but not a slot-advance latency sample).
		r.gen[k]++
		if err := r.createSession(ctx, k); err != nil {
			errs.Add(1)
			r.gen[k]-- // retry the rebirth on the next dispatch
			return
		}
	}
	body, _ := json.Marshal(map[string]any{"slot": r.next[k]})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		r.baseFor(k)+"/v1/sessions/"+r.ids[k]+"/slots", bytes.NewReader(body))
	if err != nil {
		errs.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		errs.Add(1)
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		hist.Record(time.Since(t0))
		r.next[k]++
		completed.Add(1)
	case resp.StatusCode == http.StatusTooManyRequests:
		shed.Add(1) // open loop: shedding is the signal, not an error
	default:
		errs.Add(1)
	}
}

// RunStep offers `rate` slot-advances per second for `dur` and returns
// the measured step.
func (r *Runner) RunStep(ctx context.Context, rate float64, dur time.Duration) (Step, error) {
	if rate <= 0 {
		return Step{}, fmt.Errorf("loadgen: rate must be positive")
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}

	hist := &Histogram{}
	var completed, shed, errs, starved atomic.Uint64
	ready := make(chan int, r.Sessions)
	for k := 0; k < r.Sessions; k++ {
		ready <- k
	}

	var wg sync.WaitGroup
	start := time.Now()
	ticker := time.NewTicker(interval)
	timer := time.NewTimer(dur)
	defer ticker.Stop()
	defer timer.Stop()

loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-timer.C:
			break loop
		case <-ticker.C:
			select {
			case k := <-ready:
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					r.advance(ctx, k, hist, &completed, &shed, &errs)
					ready <- k
				}(k)
			default:
				// Every session busy: an offered arrival the target could
				// not absorb. The open loop keeps its clock instead of
				// stalling.
				starved.Add(1)
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	step := Step{
		Rate:      rate,
		Seconds:   elapsed.Seconds(),
		Completed: completed.Load(),
		Shed:      shed.Load(),
		Errors:    errs.Load(),
		Starved:   starved.Load(),
		P50Ns:     float64(hist.Quantile(0.50)),
		P99Ns:     float64(hist.Quantile(0.99)),
		P999Ns:    float64(hist.Quantile(0.999)),
		MaxNs:     float64(hist.Max()),
	}
	if step.Seconds > 0 {
		step.Achieved = float64(step.Completed) / step.Seconds
	}
	return step, ctx.Err()
}

// Sweep runs one step per rate, in order, over the same session
// population (warm sessions carry across steps, like a long-lived
// deployment).
func (r *Runner) Sweep(ctx context.Context, rates []float64, dur time.Duration) ([]Step, error) {
	steps := make([]Step, 0, len(rates))
	for _, rate := range rates {
		s, err := r.RunStep(ctx, rate, dur)
		if err != nil {
			return steps, err
		}
		steps = append(steps, s)
	}
	return steps, nil
}

// WriteStepTable renders steps as a human-readable table.
func WriteStepTable(w io.Writer, steps []Step) {
	fmt.Fprintf(w, "%8s %9s %10s %6s %6s %8s %9s %9s %9s %9s\n",
		"rate", "achieved", "completed", "shed", "errs", "starved", "p50", "p99", "p999", "max")
	for _, s := range steps {
		fmt.Fprintf(w, "%8.1f %9.1f %10d %6d %6d %8d %9s %9s %9s %9s\n",
			s.Rate, s.Achieved, s.Completed, s.Shed, s.Errors, s.Starved,
			fmtNs(s.P50Ns), fmtNs(s.P99Ns), fmtNs(s.P999Ns), fmtNs(s.MaxNs))
	}
}

func fmtNs(ns float64) string {
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}
