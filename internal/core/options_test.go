package core

import (
	"flag"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"edgealloc/internal/conform"
	"edgealloc/internal/solver/alm"
)

// TestBindFlagsRoundTrip parses the shared tier flags into an Options and
// requires the struct the CLIs used to assemble by hand: blank items of
// the -shard-workers list dropped, everything unnamed left zero.
func TestBindFlagsRoundTrip(t *testing.T) {
	var got Options
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	got.BindFlags(fs)
	err := fs.Parse([]string{"-fastmath", "-shards", "4", "-shard-workers", " a, ,b ", "-incremental-tol", "1e-3"})
	if err != nil {
		t.Fatal(err)
	}
	want := Options{FastMath: true, Shards: 4, ShardWorkers: []string{"a", "b"}, IncrementalTol: 1e-3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %+v, want %+v", got, want)
	}

	var all Options
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	all.BindFlags(fs)
	if err := fs.Parse([]string{"-fastmath", "-incremental"}); err != nil {
		t.Fatal(err)
	}
	if want := (Options{FastMath: true, Incremental: true}); !reflect.DeepEqual(all, want) {
		t.Errorf("parsed %+v, want %+v", all, want)
	}
}

// TestValidateNamesTheField holds Validate to refusing, by field name,
// every value no run can take — a NaN or infinite tolerance survives
// withDefaults' "≤ 0 means default" and used to switch its gate off — and
// Step, Solve and RestoreState to returning its error before any work.
func TestValidateNamesTheField(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options: %v", err)
	}
	for _, tc := range []struct {
		opts Options
		name string
	}{
		{Options{CandidateTol: math.NaN()}, "CandidateTol"},
		{Options{Incremental: true, IncrementalTol: math.Inf(1)}, "IncrementalTol (-incremental-tol)"},
		{Options{IncrementalTol: -1}, "IncrementalTol"},
		{Options{Epsilon1: -1}, "Epsilon1"},
		{Options{Epsilon2: math.NaN()}, "Epsilon2"},
		{Options{Shards: 2, ShardDualTol: math.Inf(1)}, "ShardDualTol"},
		{Options{Candidates: -1}, "Candidates"},
		{Options{Shards: -1}, "Shards (-shards)"},
		{Options{Solver: alm.Options{Workers: -1}}, "Solver.Workers"},
		{Options{Incremental: true, Shards: 2}, "Incremental (-incremental)"},
		{Options{ShardWorkers: []string{"http://127.0.0.1:9711"}}, "ShardWorkers (-shard-workers) requires Options.Shards (-shards)"},
		{Options{Solver: alm.Options{FeasTol: math.NaN()}}, "FeasTol"},
	} {
		err := tc.opts.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%+v: Validate = %v, want an error naming %s", tc.opts, err, tc.name)
		}
	}
	in := conform.GenInstance(conform.GenConfig{Seed: 3, I: 3, J: 4, T: 3})
	opts := Options{Incremental: true, CandidateTol: math.NaN()}
	if _, err := NewOnlineApprox(in, opts).Step(0); err == nil || !strings.Contains(err.Error(), "CandidateTol") {
		t.Errorf("Step: err = %v, want Validate's", err)
	}
	if _, err := NewOnlineApprox(nil, opts).Solve(in); err == nil || !strings.Contains(err.Error(), "CandidateTol") {
		t.Errorf("Solve: err = %v, want Validate's", err)
	}
	if err := NewOnlineApprox(in, opts).RestoreState(&WarmState{}); err == nil || !strings.Contains(err.Error(), "CandidateTol") {
		t.Errorf("RestoreState: err = %v, want Validate's", err)
	}
}
