package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"edgealloc/internal/core"
	"edgealloc/internal/solver/alm"
)

// notClientSettable lists the exported fields of core.Options and
// alm.Options that are deliberately absent from the wire: coordination
// internals and deployment addresses the daemon owns, and the per-call
// fields of a solve. A field added to either struct must be put on the
// wire (solverOptions, coreOptions, the golden file, DESIGN.md §9's table)
// or named here; TestWireOptionsGolden fails until one of the two happens.
var notClientSettable = []string{
	"ShardRho", "ShardMaxIters", "ShardPrimalTol", "ShardDualTol",
	"ShardWorkers", "Metrics", "WarmX", "WarmDuals", "Workspace", "Ctx",
}

// TestWireOptionsGolden pins the HTTP/snapshot spelling of the solver
// options against drift from core.Options: the key set and order of a
// fully populated solverOptions, its strict decode, the core.Options it
// stands for, and the accounting of every option field as either on the
// wire or deliberately off it.
func TestWireOptionsGolden(t *testing.T) {
	full := solverOptions{
		Epsilon1: 0.5, Epsilon2: 0.25, Candidates: 3, CandidateTol: 1e-6,
		FastMath: true, Shards: 4,
		Incremental: true, IncrementalTol: 1e-5,
		MaxOuter: 7, InnerIters: 11, Workers: 2,
		FeasTol: 1e-4, ObjTol: 1e-3, DualTol: 1e-2, Penalty: 8,
	}
	got, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "wire_options.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Errorf("solverOptions wire form drifted from %s:\n%s", golden, got)
	}

	var back solverOptions
	dec := json.NewDecoder(bytes.NewReader(want))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("strict decode of the golden: %v", err)
	}
	if back != full {
		t.Errorf("golden decodes to %+v, want %+v", back, full)
	}

	opts := back.coreOptions()
	wantOpts := core.Options{
		Epsilon1: 0.5, Epsilon2: 0.25, Candidates: 3, CandidateTol: 1e-6,
		FastMath: true, Shards: 4,
		Incremental: true, IncrementalTol: 1e-5,
		Solver: alm.Options{MaxOuter: 7, InnerIters: 11, Workers: 2,
			FeasTol: 1e-4, ObjTol: 1e-3, DualTol: 1e-2, Penalty: 8},
	}
	if !reflect.DeepEqual(opts, wantOpts) {
		t.Errorf("coreOptions() = %+v, want %+v", opts, wantOpts)
	}

	// Every exported option field is on the wire (the fully populated
	// document sets it) or in notClientSettable, never both or neither.
	wire := 0
	for _, v := range []reflect.Value{reflect.ValueOf(opts), reflect.ValueOf(opts.Solver)} {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() || f.Type == reflect.TypeOf(alm.Options{}) {
				continue
			}
			onWire, listed := !v.Field(i).IsZero(), slices.Contains(notClientSettable, f.Name)
			if onWire {
				wire++
			}
			if onWire == listed {
				t.Errorf("%s.%s: on the wire = %v, listed not client-settable = %v; decide one",
					v.Type(), f.Name, onWire, listed)
			}
		}
	}
	if keys := reflect.TypeOf(full).NumField(); wire != keys {
		t.Errorf("%d option fields reachable from %d wire keys", wire, keys)
	}
}
