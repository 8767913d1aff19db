// Command bench is the repository's benchmark: four slot-advance
// workloads measured end to end on a quiet-latency estimator, plus a
// traced run that measures every layer from outside. README.md in this
// directory is the manual; BENCHMARK.json at the repository root is the
// contract.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// minPasses is the fewest fresh-process passes behind a quiet latency;
// passSeconds is what one pass's timed region is sized to, so -seconds
// buys passes and never fewer than four.
const (
	minPasses   = 4
	passSeconds = 4
)

// defaultSeed is the seed whose generated instances digests.go pins.
const defaultSeed = 1

// variantTimed is how many timed slots per session the traced run's
// no-autosnapshot and routed serving passes repeat.
const variantTimed = 8

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	smoke    bool

	// Child-process parameters: child selects the pass kind, the rest
	// shape it.
	child                             string
	full, traced, autosnapshot, route bool
	timed                             int
}

func run(args []string, stdout, stderr io.Writer) int {
	var c config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload to run (default: all, passes interleaved round-robin)")
	fs.Int64Var(&c.seed, "seed", defaultSeed, "workload seed")
	fs.IntVar(&c.seconds, "seconds", minPasses*passSeconds, "measurement budget; buys passes of ~4 s, at least four")
	fs.IntVar(&c.trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&c.out, "out", filepath.Join("bench", "out"), "directory for span files and snapshot scratch")
	fs.BoolVar(&c.smoke, "smoke", false, "shrink every workload to self-test size")
	fs.StringVar(&c.child, "child", "", "internal: run one pass (lib, serve, probe) and print its record")
	fs.BoolVar(&c.full, "full", false, "internal: lib pass runs the whole correctness gate")
	fs.BoolVar(&c.traced, "traced", false, "internal: pass records spans and layer metrics")
	fs.BoolVar(&c.autosnapshot, "autosnapshot", false, "internal: serve pass snapshots after every slot")
	fs.BoolVar(&c.route, "route", false, "internal: serve pass goes through a route.Router")
	fs.IntVar(&c.timed, "timed", 0, "internal: serve pass caps its timed slots per session")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if c.workload != "" {
		w := workloadByName(c.workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", c.workload)
			return 2
		}
		selected = []*workload{w}
	}

	if c.child != "" {
		// Bring the core out of whatever idle state the gap before this
		// process left it in before anything is timed: without it set-up
		// times read 20% apart on how long the machine had idled.
		for s := time.Now(); time.Since(s) < 50*time.Millisecond; {
			refSample()
		}
		rec := c.pass(selected[0])
		if err := json.NewEncoder(stdout).Encode(rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	p := &parent{config: c, exe: exe, stdout: stdout, stderr: stderr}
	var results []*result
	if c.trace != 0 {
		for _, w := range selected {
			results = append(results, p.tracedRun(w))
		}
	} else {
		results = p.measuredRuns(selected)
	}
	// A failed check is in the result line, not in the exit code: the
	// driver reads `correct` from a run that exited 0.
	for _, r := range results {
		line, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

// pass runs the child's one pass in this process.
func (c *config) pass(w *workload) *passRecord {
	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	switch c.child {
	case "serve":
		v := serveVariant{autosnapshot: c.autosnapshot, routed: c.route, timed: c.timed}
		return servePass(w, c.seed, c.smoke, v, c.out, tr)
	case "probe":
		return probePass(w, c.seed, c.smoke)
	default:
		return libPass(w, c.seed, c.smoke, c.full, tr)
	}
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type parent struct {
	config
	exe            string
	stdout, stderr io.Writer
}

// spawn runs one pass in a fresh process — its own heap, GC pacing and
// peak RSS — pinned to the host's two vCPUs, and waits for it to end.
func (p *parent) spawn(w *workload, args ...string) (*passRecord, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	args = append(args, "-workload", w.name, "-seed", strconv.FormatInt(p.seed, 10), "-out", p.out)
	if p.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, p.exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = p.stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass %v: %w", w.name, args, err)
	}
	rec := &passRecord{}
	if err := json.Unmarshal(out.Bytes(), rec); err != nil {
		return nil, fmt.Errorf("%s pass %v: decoding record: %w", w.name, args, err)
	}
	return rec, nil
}

// ownPass spawns one pass of the workload's own kind. Library passes run
// the whole correctness gate only when full is set; serving passes always
// do, their gate being cheap at their size.
func (p *parent) ownPass(w *workload, full, traced bool) (*passRecord, error) {
	args := []string{"-child", "lib"}
	if w.serve {
		args = []string{"-child", "serve", "-autosnapshot"}
	}
	if full {
		args = append(args, "-full")
	}
	if traced {
		args = append(args, "-traced")
	}
	return p.spawn(w, args...)
}

// measuredRuns is the end-to-end measurement: P passes per workload, the
// passes of different workloads interleaved round-robin so a slow phase
// of the host never lands on one workload, tracing off throughout.
func (p *parent) measuredRuns(selected []*workload) []*result {
	passes := max(minPasses, p.seconds/passSeconds)
	recs := make([][]*passRecord, len(selected))
	errs := make([]error, len(selected))
	for n := 0; n < passes; n++ {
		for k, w := range selected {
			if errs[k] != nil {
				continue
			}
			rec, err := p.ownPass(w, n == 0, false)
			if err != nil {
				errs[k] = err
				continue
			}
			recs[k] = append(recs[k], rec)
		}
	}
	results := make([]*result, len(selected))
	for k, w := range selected {
		run := newRun(w, p.seed, p.smoke)
		if errs[k] != nil {
			run.problem("%v", errs[k])
		}
		run.add(recs[k]...)
		results[k] = run.endToEnd(p.stdout)
	}
	return results
}

// tracedRun is the separate traced run of one workload: an untraced pass
// for the tracing overhead, the traced pass, the probes, and for a serving
// workload the passes that take the snapshot out of the path, put a router
// into it, and step the same sessions' instances through core directly.
func (p *parent) tracedRun(w *workload) *result {
	run := newRun(w, p.seed, p.smoke)
	layer := map[string]float64{}
	merge := func(rec *passRecord, err error) *passRecord {
		if err != nil {
			run.problem("%v", err)
			return nil
		}
		run.add(rec)
		for name, v := range rec.Layer {
			layer[name] = v
		}
		return rec
	}

	// The shadow pass goes first so the workload's own traced pass has
	// the last word on the runtime counters both report.
	var shadow *passRecord
	if w.serve {
		shadow = merge(p.spawn(w, "-child", "lib", "-full", "-traced"))
	}
	plain := merge(p.ownPass(w, true, false))
	traced := merge(p.ownPass(w, true, true))
	merge(p.spawn(w, "-child", "probe"))
	if plain != nil && traced != nil {
		layer["trace.overhead_frac"] = median(flatten(traced.LatMs))*timeScale(traced.Speed)/
			(median(flatten(plain.LatMs))*timeScale(plain.Speed)) - 1
	}
	if w.serve {
		timed := strconv.Itoa(variantTimed)
		bare := merge(p.spawn(w, "-child", "serve", "-timed", timed))
		routed := merge(p.spawn(w, "-child", "serve", "-timed", timed, "-route"))
		if traced != nil && bare != nil && routed != nil {
			// Slot by slot over the slots all three passes answered.
			var snap, hop []float64
			for k := 0; k < min(len(traced.RoundtripMs), len(bare.RoundtripMs), len(routed.RoundtripMs)); k++ {
				for i := 0; i < min(len(traced.RoundtripMs[k]), len(bare.RoundtripMs[k]), len(routed.RoundtripMs[k])); i++ {
					with := traced.RoundtripMs[k][i] - traced.SolveMs[k][i]
					without := bare.RoundtripMs[k][i] - bare.SolveMs[k][i]
					snap = append(snap, with-without)
					hop = append(hop, routed.RoundtripMs[k][i]-bare.RoundtripMs[k][i])
				}
			}
			layer["serve.autosnap_ms_p50"] = median(snap)
			layer["route.forward_ms_p50"] = median(hop)
		}
		// The sessions ran core.OnlineApprox behind HTTP, JSON and
		// snapshots; stepping the same instances directly must commit
		// the same decisions bit for bit.
		if traced != nil && shadow != nil && !slices.Equal(traced.Schedules, shadow.Schedules) {
			run.problem("served schedules differ from the library's on the same instances")
		}
	}
	if traced != nil {
		if err := writeSpans(filepath.Join(p.out, "trace-"+w.name+".json"), traced.Spans); err != nil {
			run.problem("%v", err)
		}
	}
	return run.perLayer(p.stdout, layer)
}

// writeSpans fills in the self times and writes the file. Self time is
// a span's duration minus its children's, so the self times under a slot
// advance sum to its wall time exactly — provided no span's children cover
// more than the span itself, which is what is checked, to 5%.
func writeSpans(path string, spans []span) error {
	fillSelf(spans)
	for _, s := range spans {
		if wall := s.EndUs - s.StartUs; s.SelfUs < -0.05*wall {
			return fmt.Errorf("span %d (%s, slot %d): children cover %.1f us of its %.1f us",
				s.ID, s.Name, s.Slot, wall-s.SelfUs, wall)
		}
	}
	raw, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
