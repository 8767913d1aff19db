package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want int
		errs string // substring required on stderr
	}{
		{"bad flag", []string{"-nope"}, 2, "-nope"},
		{"non-numeric users", []string{"-users", "lots"}, 2, "invalid"},
		{"extra args", []string{"2"}, 2, "unexpected arguments"},
		{"unknown figure", []string{"-fig", "9"}, 1, "9"},
		{"unknown ablation", []string{"-ablation", "bogus"}, 1, "bogus"},
		{"ablation with figure", []string{"-ablation", "adversarial", "-fig", "2"}, 2, "mutually exclusive"},
		{"bad profile path", []string{"-fig", "1", "-cpuprofile", "/no/such/dir/cpu.prof"}, 1, "cpu.prof"},
		{"shard workers without shards", []string{"-fig", "1", "-shard-workers", "http://127.0.0.1:9711"}, 2, "-shard-workers requires -shards"},
		{"incremental with shards", []string{"-fig", "1", "-incremental", "-shards", "2"}, 2, "-incremental does not compose with -shards"},
		{"blank shard workers are none", []string{"-fig", "9", "-shard-workers", " , "}, 1, "9"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tt.args, &stdout, &stderr); got != tt.want {
				t.Fatalf("run(%v) = %d, want %d (stderr %q)", tt.args, got, tt.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tt.errs) {
				t.Errorf("stderr %q missing %q", stderr.String(), tt.errs)
			}
		})
	}
}

// TestRunFigure1 is the cheapest full figure: two toy examples, offline
// vs online, no scenario generation.
func TestRunFigure1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-fig", "1"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, stderr %q", got, stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, "Fig 1") {
		t.Errorf("output %q does not announce Fig 1", out)
	}
}

// TestRunAblation drives the cheapest study (exact LP denominators on
// tiny instances) through the -ablation switch: its table, and none of
// the figure output, is printed.
func TestRunAblation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-ablation", "adversarial"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, stderr %q", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"Ablation C", "spike=8.0", "theorem-2-bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, not := range []string{"Fig ", "headline claims"} {
		if strings.Contains(out, not) {
			t.Errorf("ablation run printed figure output %q:\n%s", not, out)
		}
	}
}

// TestRunMetricsDump checks that -metrics writes a Prometheus text dump
// carrying the per-slot solver series recorded during the run.
func TestRunMetricsDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-fig", "1", "-metrics", path}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, stderr %q", got, stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading metrics dump: %v", err)
	}
	out := string(raw)
	for _, want := range []string{
		"# TYPE edgealloc_solver_step_seconds histogram",
		"edgealloc_solver_steps_total",
		"edgealloc_sim_runs_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "edgealloc_solver_steps_total 0\n") {
		t.Error("metrics dump recorded zero solver steps; Params.Approx.Metrics not plumbed to the algorithm")
	}
	if code := run([]string{"-fig", "1", "-metrics", "/no/such/dir/m.prom"}, &stdout, &stderr); code != 1 {
		t.Errorf("bad metrics path: exit %d, want 1", code)
	}
}

// TestRunFigure2Plumbing drives a tiny Figure-2 run end to end with the
// worker pool, the candidate-set path, and the conformance oracle all
// engaged, checking the flag plumbing reaches the experiment engine.
func TestRunFigure2Plumbing(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 2 solves offline denominators")
	}
	args := []string{"-fig", "2", "-users", "4", "-horizon", "2", "-reps", "1",
		"-cases", "1", "-workers", "2", "-candidates", "2"}
	var stdout, stderr bytes.Buffer
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, stderr %q", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"Fig 2", "headline claims"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The same run with the oracle disabled must agree: -noconform only
	// removes checking, never changes results.
	var stdout2, stderr2 bytes.Buffer
	if got := run(append(args, "-noconform"), &stdout2, &stderr2); got != 0 {
		t.Fatalf("-noconform exit %d, stderr %q", got, stderr2.String())
	}
	strip := func(s string) string {
		// Drop the timing lines; they differ run to run.
		var keep []string
		for _, l := range strings.Split(s, "\n") {
			if !strings.Contains(l, " in ") {
				keep = append(keep, l)
			}
		}
		return strings.Join(keep, "\n")
	}
	if strip(stdout.String()) != strip(stdout2.String()) {
		t.Errorf("-noconform changed the results:\n--- with oracle\n%s\n--- without\n%s",
			stdout.String(), stdout2.String())
	}
}

// TestFlagNamesGolden lists every flag edgesim accepts: none is added,
// removed or renamed without this list changing with it.
func TestFlagNamesGolden(t *testing.T) {
	want := []string{
		"ablation", "candidates", "cases", "cpuprofile", "dist", "fastmath",
		"fig", "horizon", "incremental", "incremental-tol", "memprofile",
		"metrics", "migscale", "mu", "noconform", "reconf", "reps", "seed",
		"shard-workers", "shards", "sqprice", "users", "vol", "workers",
	}
	var got []string
	newFlagSet(new(options), io.Discard).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !slices.Equal(got, want) {
		t.Errorf("edgesim flags\n got %q\nwant %q", got, want)
	}
}
