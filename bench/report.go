package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// benchRun collects the passes of one workload and turns them into the
// figures the driver reads.
type benchRun struct {
	w        *workload
	seed     int64
	smoke    bool
	recs     []*passRecord
	digests  []string // of the instances the first generating pass reported
	problems []string
}

func newRun(w *workload, seed int64, smoke bool) *benchRun {
	return &benchRun{w: w, seed: seed, smoke: smoke}
}

func (r *benchRun) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// add takes finished passes into the run. Every pass that generated the
// workload's episodes must have generated the same instances — the pinned
// ones, on the default seed.
func (r *benchRun) add(recs ...*passRecord) {
	for _, rec := range recs {
		for _, p := range rec.Problems {
			r.problem("%s", p)
		}
		if len(rec.Digests) > 0 { // a probe pass generates episode 0 only and digests nothing
			want := rec.Digests
			if r.seed == defaultSeed && !r.smoke {
				want = pinnedDigests[r.w.name]
			} else if r.digests != nil {
				want = r.digests
			}
			if !slices.Equal(rec.Digests, want) {
				r.problem("pass generated instances %v, want %v", rec.Digests, want)
			}
			if r.digests == nil {
				r.digests = rec.Digests
			}
		}
		r.recs = append(r.recs, rec)
	}
}

// endToEnd aggregates the measured passes, each pass's times first scaled
// to the reference host speed (hostspeed.go). Latency statistics are taken
// over the per-slot minimum across passes, and so is CPU per slot where
// the pass could attribute CPU to slots: its median, which one seed's
// heavy slots do not move, where the mean swung 12-22% between seeds. A
// serving pass overlaps its sessions, so its CPU per slot is the whole
// timed region's, the minimum across passes. Peak RSS is the minimum
// across passes too — a collection that runs a little late only adds
// garbage to the peak (at the flagship size it is bimodal, 79 or 94 MB,
// on GC timing alone). Set-up time is the median across passes.
func (r *benchRun) endToEnd(out io.Writer) *result {
	res := &result{Metrics: map[string]metricValue{}}
	var lat, raw, cpuSlot [][][]float64 // [pass][episode][slot]
	var setup, cpu, rss, rate, speed []float64
	var verified *passRecord
	for _, rec := range r.recs {
		res.Attempted += rec.Attempted
		res.Failed += rec.Failed
		if first := r.recs[0]; !slices.Equal(rec.Schedules, first.Schedules) || rec.Inner != first.Inner {
			r.problem("passes disagree: %d inner iterations and schedules %v against %d and %v",
				rec.Inner, rec.Schedules, first.Inner, first.Schedules)
			res.Failed += rec.Attempted - rec.Failed
		}
		if verified == nil && rec.LowerBound > 0 {
			verified = rec
		}
		// Times are scaled to the reference speed pass by pass, before
		// any minimum is taken across passes.
		timed := len(flatten(rec.LatMs))
		scale := timeScale(rec.Speed)
		raw = append(raw, rec.LatMs)
		lat = append(lat, scaled(rec.LatMs, scale))
		if rec.CPUSlotMs != nil {
			cpuSlot = append(cpuSlot, scaled(rec.CPUSlotMs, scale))
		}
		setup = append(setup, rec.SetupS*scale)
		rss = append(rss, rec.RSSMB)
		speed = append(speed, rec.Speed)
		if timed > 0 {
			cpu = append(cpu, rec.CPUMs*scale/float64(timed))
			rate = append(rate, float64(timed)/rec.TimedS)
		}
	}
	if len(r.recs) == 0 || verified == nil {
		r.problem("no pass finished its correctness gate")
		return r.finish(out, res, "")
	}

	quiet := quietSlots(lat)
	n := len(quiet)
	tail := tailPercentile(n)
	// The limit is on the latency a user saw, not the scaled one.
	inSLO := 0
	for _, q := range quietSlots(raw) {
		if q <= r.w.sloMs {
			inSLO++
		}
	}
	perPass := res.Attempted / len(r.recs)
	failedShare := float64(res.Failed) / float64(max(res.Attempted, 1))

	set := func(name string, v float64) { res.Metrics[name] = metricValue{Value: v} }
	set("setup_s", median(setup))
	set("slot_p50_ms", median(quiet))
	set("slot_tail_ms", percentile(quiet, float64(tail)))
	if r.w.serve {
		// An open loop completes what it is offered; the best pass is
		// the one the host disturbed least.
		set("slots_per_s", slices.Max(rate))
	} else {
		set("slots_per_s", float64(n)/(sum(quiet)/1e3))
	}
	// A failed advance misses the limit whatever its latency was.
	set("in_slo_frac", float64(inSLO)/float64(max(perPass, 1))*(1-failedShare))
	set("cost_per_slot", verified.Cost/float64(verified.Slots))
	set("certified_ratio", verified.Cost/verified.LowerBound)
	if len(cpuSlot) == len(lat) {
		set("cpu_ms_per_slot", median(quietSlots(cpuSlot)))
	} else {
		set("cpu_ms_per_slot", minOf(cpu))
	}
	set("rss_peak_mb", minOf(rss))
	note := fmt.Sprintf("%d passes, %d timed slots each (%d episodes), tail = p%d, SLO %g ms, host speed %.3f",
		len(r.recs), n, len(lat[0]), tail, r.w.sloMs, median(speed))
	return r.finish(out, res, note, endToEnd...)
}

// scaled multiplies every value of the series by f.
func scaled(series [][]float64, f float64) [][]float64 {
	out := make([][]float64, len(series))
	for k, s := range series {
		out[k] = make([]float64, len(s))
		for i, v := range s {
			out[k][i] = v * f
		}
	}
	return out
}

// quietSlots pools, over the episodes, each slot's minimum across the
// passes that finished the episode.
func quietSlots(passes [][][]float64) []float64 {
	var quiet []float64
	for k := range passes[0] {
		series := make([][]float64, 0, len(passes))
		for _, pass := range passes {
			if k < len(pass) && len(pass[k]) == len(passes[0][k]) {
				series = append(series, pass[k])
			}
		}
		quiet = append(quiet, slotMin(series)...)
	}
	return quiet
}

// perLayer reports the traced run. Layers outside the workload's path
// report zero.
func (r *benchRun) perLayer(out io.Writer, layer map[string]float64) *result {
	res := &result{Metrics: map[string]metricValue{}}
	for _, rec := range r.recs {
		res.Attempted += rec.Attempted
		res.Failed += rec.Failed
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{Value: layer[m.Name]}
	}
	for name := range layer {
		if _, ok := res.Metrics[name]; !ok {
			r.problem("pass reported unknown layer metric %q", name)
		}
	}
	return r.finish(out, res, "traced run", perLayer...)
}

// finish stamps units, rejects figures that are not numbers, and prints
// the readable report.
func (r *benchRun) finish(out io.Writer, res *result, note string, defs ...metric) *result {
	fmt.Fprintf(out, "== %s seed %d: %s\n", r.w.name, r.seed, note)
	for _, m := range defs {
		v := res.Metrics[m.Name]
		v.Unit = m.Unit
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.problem("%s is %v", m.Name, v.Value)
			v.Value = 0
		}
		res.Metrics[m.Name] = v
		fmt.Fprintf(out, "%-34s %14.6g %s\n", m.Name, v.Value, m.Unit)
	}
	fmt.Fprintf(out, "instances %v\n", r.digests)
	for _, p := range r.problems {
		fmt.Fprintf(out, "PROBLEM %s\n", p)
	}
	res.Attempted = max(res.Attempted, 1)
	res.Correct = len(r.problems) == 0 && res.Failed == 0
	fmt.Fprintf(out, "attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	return res
}
