package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

func TestSlotMinTakesEachSlotsFastestPass(t *testing.T) {
	got := slotMin([][]float64{{5, 2, 9}, {4, 3, 9}, {6, 1, 8}})
	want := []float64{4, 1, 8}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("slotMin = %v, want %v", got, want)
		}
	}
	if slotMin(nil) != nil {
		t.Fatal("slotMin of no passes must be nil")
	}
}

func TestPercentileInterpolatesOrderStatistics(t *testing.T) {
	vals := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {25, 17.5}} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no values must be NaN")
	}
	if median([]float64{3, 1, 2}) != 2 || minOf([]float64{3, 1, 2}) != 1 {
		t.Error("median/minOf wrong on {3,1,2}")
	}
}

// The tail percentile is the highest with at least ten samples beyond it.
func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{10, 55}, {22, 55}, {23, 55}, {25, 60}, {36, 70}, {50, 80}, {57, 80}, {100, 90}, {120, 90}, {200, 95}, {1000, 95},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if beyond := float64(c.n) * float64(100-got) / 100; c.n >= 23 && beyond < 10 {
			t.Errorf("tailPercentile(%d) = %d leaves %.1f samples beyond", c.n, got, beyond)
		}
	}
}

// Set-up is the median across passes, RSS the minimum, latency and CPU
// statistics of the per-slot minimum, and a pass that disagrees with the
// first is a failure.
func TestEndToEndAggregatesAcrossPasses(t *testing.T) {
	w := &workload{name: "t", episodes: 1, warm: 0, timed: 2, sloMs: 10}
	pass := func(setup, cpu, rss float64, lat ...float64) *passRecord {
		return &passRecord{
			Schedules: []string{"s"}, Inner: 7, Speed: 1, SetupS: setup, CPUMs: cpu, RSSMB: rss, TimedS: 1,
			LatMs: [][]float64{lat}, CPUSlotMs: [][]float64{{cpu, cpu + 2}}, Attempted: 2, Slots: 2,
		}
	}
	first := pass(1, 8, 100, 4, 20)
	first.Cost, first.LowerBound = 30, 20
	run := newRun(w, 99, false)
	run.add(first, pass(3, 6, 300, 6, 8), pass(2, 9, 200, 5, 30))
	res := run.endToEnd(io.Discard)
	want := map[string]float64{
		"setup_s": 2, "rss_peak_mb": 100, "cpu_ms_per_slot": 7,
		"slot_p50_ms": 6, "slots_per_s": 2 / 0.012, "in_slo_frac": 1,
		"cost_per_slot": 15, "certified_ratio": 1.5,
	}
	for name, v := range want {
		if got := res.Metrics[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
	if !res.Correct || res.Attempted != 6 || res.Failed != 0 {
		t.Errorf("clean run reported correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}

	other := pass(1, 1, 1, 1, 1)
	other.Inner = 8
	run = newRun(w, 99, false)
	run.add(first, other)
	if res := run.endToEnd(io.Discard); res.Correct || res.Failed != 2 {
		t.Errorf("diverging pass: correct=%v failed=%d, want false and 2", res.Correct, res.Failed)
	}
}

func TestSpanSelfTimesSumToWall(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "slot", Slot: 3, StartUs: 0, EndUs: 100},
		{ID: 2, Parent: 1, Name: "roundtrip", Slot: 3, StartUs: 10, EndUs: 90},
		{ID: 3, Parent: 2, Name: "solve", Slot: 3, StartUs: 60, EndUs: 90},
	}
	fillSelf(spans)
	for k, want := range []float64{20, 50, 30} {
		if spans[k].SelfUs != want {
			t.Errorf("span %d self = %g, want %g", k+1, spans[k].SelfUs, want)
		}
	}
	path := t.TempDir() + "/spans.json"
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	spans[2].EndUs = 200 // a child that outlasts its parent breaks the sum
	if err := writeSpans(path, spans); err == nil {
		t.Error("writeSpans accepted a span whose children outlast it")
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func tableManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: minPasses * passSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	return m
}

// BENCHMARK.json must say what this package does, inside the driver's
// limits on names, units, counts and bounds.
func TestManifestMatchesTables(t *testing.T) {
	want, err := json.MarshalIndent(tableManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("../BENCHMARK.json differs from the tables; run `go test -run TestManifest -update`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || bytes.ContainsRune([]byte(w.why), '\n') {
			t.Errorf("%s: why is %d characters or spans lines", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v malformed", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup || len(endToEnd) > 16 {
		t.Error("end-to-end metrics must include setup_s and number at most 16")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v malformed", m)
		}
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
}

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes os.Executable() with -child first, and that call
// lands here.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// Every workload, shrunk, must run clean through the real parent and child
// processes and print every metric of both lists under its declared name
// and unit, as the last line of its output.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for trace, defs := range [][]metric{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-smoke", "-workload", w.name, "-seed", "5", "-out", out, "-trace", strconv.Itoa(trace)}, &stdout, &stderr)
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("%s trace %d: last line is not a result: %v\n%s%s", w.name, trace, err, &stdout, &stderr)
			}
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: exit %d, %+v\n%s%s", w.name, trace, code, res, &stdout, &stderr)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || (trace == 0 && !(v.Value > 0)) {
					t.Errorf("%s trace %d: %s = %+v (present %v), want unit %s", w.name, trace, m.Name, v, ok, m.Unit)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: traced run left no span file: %v", w.name, err)
		}
	}
}

// The generators are closed over the seed and the pinned digests are the
// default seed's.
func TestGeneratorsAreDeterministicAndPinned(t *testing.T) {
	for _, w := range workloads {
		pin := pinnedDigests[w.name]
		if len(pin) != w.episodes {
			t.Errorf("%s: %d pinned digests, want %d", w.name, len(pin), w.episodes)
			continue
		}
		a, err := w.episode(defaultSeed, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.episode(defaultSeed, 0, false)
		c, _ := w.episode(defaultSeed+1, 0, false)
		if instanceDigest(a) != pin[0] || instanceDigest(b) != pin[0] {
			t.Errorf("%s: episode 0 of the default seed does not match its pinned digest", w.name)
		}
		if instanceDigest(c) == pin[0] {
			t.Errorf("%s: seeds %d and %d generate the same instance", w.name, defaultSeed, defaultSeed+1)
		}
	}
}
