package model

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// smallInstance builds a minimal valid instance for mutation tests.
func smallInstance() *Instance {
	return &Instance{
		I: 2, J: 2, T: 2,
		Capacity:    []float64{3, 3},
		InterDelay:  [][]float64{{0, 1}, {1, 0}},
		Workload:    []float64{1, 2},
		OpPrice:     [][]float64{{1, 2}, {2, 1}},
		ReconfPrice: []float64{0.5, 0.5},
		MigOutPrice: []float64{0.1, 0.2},
		MigInPrice:  []float64{0.3, 0.4},
		Attach:      [][]int{{0, 1}, {1, 1}},
		AccessDelay: [][]float64{{0.1, 0.2}, {0.3, 0.4}},
		WOp:         1, WSq: 1, WRc: 1, WMg: 1,
	}
}

func TestValidateAcceptsGoodInstance(t *testing.T) {
	if err := smallInstance().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, toy := range []*Instance{ToyExampleA(), ToyExampleB()} {
		if err := toy.Validate(); err != nil {
			t.Fatalf("toy Validate: %v", err)
		}
	}
}

func TestValidateRejectsBadInstances(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Instance)
		want   string
	}{
		{"zero I", func(in *Instance) { in.I = 0 }, "dimensions"},
		{"negative weight", func(in *Instance) { in.WMg = -1 }, "weights"},
		{"capacity len", func(in *Instance) { in.Capacity = in.Capacity[:1] }, "Capacity"},
		{"capacity zero", func(in *Instance) { in.Capacity[0] = 0 }, "Capacity[0]"},
		{"delay diag", func(in *Instance) { in.InterDelay[1][1] = 2 }, "diagonal"},
		{"delay negative", func(in *Instance) { in.InterDelay[0][1] = -1 }, "negative"},
		{"workload zero", func(in *Instance) { in.Workload[1] = 0 }, "Workload"},
		{"reconf len", func(in *Instance) { in.ReconfPrice = nil }, "ReconfPrice"},
		{"mig negative", func(in *Instance) { in.MigInPrice[0] = -0.1 }, "MigInPrice"},
		{"op price rows", func(in *Instance) { in.OpPrice = in.OpPrice[:1] }, "time-major"},
		{"op price negative", func(in *Instance) { in.OpPrice[1][0] = -1 }, "OpPrice"},
		{"attach range", func(in *Instance) { in.Attach[0][0] = 7 }, "out of"},
		{"access negative", func(in *Instance) { in.AccessDelay[1][1] = -2 }, "AccessDelay"},
		{"capacity below workload", func(in *Instance) {
			in.Capacity = []float64{1, 1}
		}, "total capacity"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := smallInstance()
			tt.mutate(in)
			err := in.Validate()
			if err == nil {
				t.Fatal("Validate accepted bad instance")
			}
			if !errors.Is(err, ErrInvalidInstance) {
				t.Errorf("error %v does not wrap ErrInvalidInstance", err)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestAllocAccessors(t *testing.T) {
	a := NewAlloc(2, 3)
	a.Set(1, 2, 5)
	a.Set(0, 0, 1)
	if a.At(1, 2) != 5 || a.At(0, 0) != 1 || a.At(0, 1) != 0 {
		t.Fatalf("accessors broken: %v", a.X)
	}
	ct := a.CloudTotals()
	if ct[0] != 1 || ct[1] != 5 {
		t.Errorf("CloudTotals = %v, want [1 5]", ct)
	}
	ut := a.UserTotals()
	if ut[0] != 1 || ut[1] != 0 || ut[2] != 5 {
		t.Errorf("UserTotals = %v, want [1 0 5]", ut)
	}
	c := a.Clone()
	c.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestFig1ExampleACosts(t *testing.T) {
	in := ToyExampleA()
	// Greedy trajectory: follow the user A -> B -> A. Paper: 11.5.
	follow, err := in.Evaluate(ToyFollow(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Total(follow); math.Abs(got-11.5) > 1e-9 {
		t.Errorf("follow-user total = %g, want 11.5", got)
	}
	// Optimal trajectory: stay at A. Paper: 9.6.
	stay, err := in.Evaluate(ToyStay(in, ToyCloudA))
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Total(stay); math.Abs(got-9.6) > 1e-9 {
		t.Errorf("stay-at-A total = %g, want 9.6", got)
	}
}

func TestFig1ExampleBCosts(t *testing.T) {
	in := ToyExampleB()
	// Greedy trajectory: stay at A. Paper: 11.3.
	stay, err := in.Evaluate(ToyStay(in, ToyCloudA))
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Total(stay); math.Abs(got-11.3) > 1e-9 {
		t.Errorf("stay-at-A total = %g, want 11.3", got)
	}
	// Optimal trajectory: migrate to B in slot 2. Paper: 9.5.
	mig, err := in.Evaluate(ToyMigrateOnce(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Total(mig); math.Abs(got-9.5) > 1e-9 {
		t.Errorf("migrate-once total = %g, want 9.5", got)
	}
}

func TestSlotDynamicDirections(t *testing.T) {
	in := smallInstance()
	prev := NewAlloc(2, 2)
	prev.Set(0, 0, 2)
	cur := NewAlloc(2, 2)
	cur.Set(1, 0, 2) // user 0 moved entirely from cloud 0 to cloud 1
	rc, mg := in.SlotDynamic(prev, cur)
	// Reconfiguration only at cloud 1 (increase of 2): 0.5*2 = 1.
	if math.Abs(rc-1) > 1e-12 {
		t.Errorf("rc = %g, want 1", rc)
	}
	// Migration: out of cloud 0 (2 units * 0.1) + into cloud 1 (2 * 0.4).
	if want := 2*0.1 + 2*0.4; math.Abs(mg-want) > 1e-12 {
		t.Errorf("mg = %g, want %g", mg, want)
	}
	// P1 variant: only incoming at b = out+in of cloud 1: 2*(0.2+0.4).
	_, mgP1 := in.SlotDynamicP1(prev, cur)
	if want := 2 * 0.6; math.Abs(mgP1-want) > 1e-12 {
		t.Errorf("mgP1 = %g, want %g", mgP1, want)
	}
}

// TestSlotCostMatchesStaticPlusDynamic pins the fused pass to the two it
// replaces, bit for bit, on random instances and grids drawn from a palette
// of −0, subnormals and values that tie between prev and cur, and Evaluate
// to the sum of the two over a schedule.
func TestSlotCostMatchesStaticPlusDynamic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	negZero := math.Copysign(0, -1)
	palette := []float64{0, negZero, math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		0x1p-1022, 0.5, 1, 1.5, 0.1, 0.2, 0.3}
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.Float64() * 4
		}
		return palette[rng.Intn(len(palette))]
	}
	bits := func(b Breakdown) [4]uint64 {
		return [4]uint64{math.Float64bits(b.Op), math.Float64bits(b.Sq), math.Float64bits(b.Rc), math.Float64bits(b.Mg)}
	}
	for trial := 0; trial < 200; trial++ {
		in := smallInstance()
		in.I, in.J = 1+rng.Intn(5), 1+rng.Intn(9)
		in.Workload = make([]float64, in.J)
		in.ReconfPrice, in.MigOutPrice, in.MigInPrice = make([]float64, in.I), make([]float64, in.I), make([]float64, in.I)
		in.InterDelay = make([][]float64, in.I)
		for i := range in.InterDelay {
			in.InterDelay[i] = make([]float64, in.I)
			for k := range in.InterDelay[i] {
				if k != i {
					in.InterDelay[i][k] = draw()
				}
			}
			in.ReconfPrice[i], in.MigOutPrice[i], in.MigInPrice[i] = draw(), draw(), draw()
		}
		for j := range in.Workload {
			in.Workload[j] = 0.25 + rng.Float64()
		}
		sched := make(Schedule, in.T)
		for t2 := 0; t2 < in.T; t2++ {
			in.OpPrice[t2], in.Attach[t2], in.AccessDelay[t2] = make([]float64, in.I), make([]int, in.J), make([]float64, in.J)
			for i := range in.OpPrice[t2] {
				in.OpPrice[t2][i] = draw()
			}
			for j := 0; j < in.J; j++ {
				in.Attach[t2][j], in.AccessDelay[t2][j] = rng.Intn(in.I), draw()
			}
			sched[t2] = NewAlloc(in.I, in.J)
			for k := range sched[t2].X {
				if t2 > 0 && rng.Intn(3) == 0 {
					sched[t2].X[k] = sched[t2-1].X[k] // an exact tie
				} else {
					sched[t2].X[k] = draw()
				}
			}
		}
		var want Breakdown
		prev := in.InitialAlloc()
		for t2, cur := range sched {
			op, sq := in.SlotStatic(t2, cur)
			rc, mg := in.SlotDynamic(prev, cur)
			slot := Breakdown{Op: op, Sq: sq, Rc: rc, Mg: mg}
			if got := in.SlotCost(t2, prev, cur); bits(got) != bits(slot) {
				t.Fatalf("trial %d slot %d: SlotCost %+v, SlotStatic + SlotDynamic %+v", trial, t2, got, slot)
			}
			want.Add(slot)
			prev = cur
		}
		if got, err := in.Evaluate(sched); err != nil || bits(got) != bits(want) {
			t.Fatalf("trial %d: Evaluate %+v (%v), slot sums %+v", trial, got, err, want)
		}
	}
}

func TestEvaluateLengthMismatch(t *testing.T) {
	in := smallInstance()
	if _, err := in.Evaluate(make(Schedule, 1)); err == nil {
		t.Error("Evaluate accepted short schedule")
	}
	if _, err := in.EvaluateP1(make(Schedule, 3)); err == nil {
		t.Error("EvaluateP1 accepted long schedule")
	}
}

func TestCheckFeasible(t *testing.T) {
	in := smallInstance()
	good := make(Schedule, in.T)
	for t2 := range good {
		x := NewAlloc(in.I, in.J)
		x.Set(0, 0, 1) // user 0 demand 1
		x.Set(1, 1, 2) // user 1 demand 2
		good[t2] = x
	}
	if err := in.CheckFeasible(good, 1e-9); err != nil {
		t.Fatalf("CheckFeasible rejected a feasible schedule: %v", err)
	}

	under := make(Schedule, in.T)
	for t2 := range under {
		x := NewAlloc(in.I, in.J)
		x.Set(0, 0, 0.5)
		x.Set(1, 1, 2)
		under[t2] = x
	}
	if err := in.CheckFeasible(under, 1e-9); err == nil {
		t.Error("CheckFeasible accepted under-served demand")
	}

	over := make(Schedule, in.T)
	for t2 := range over {
		x := NewAlloc(in.I, in.J)
		x.Set(0, 0, 1)
		x.Set(0, 1, 2.5) // cloud 0 load 3.5 > capacity 3
		over[t2] = x
	}
	if err := in.CheckFeasible(over, 1e-9); err == nil {
		t.Error("CheckFeasible accepted over-capacity cloud")
	}

	neg := make(Schedule, in.T)
	for t2 := range neg {
		x := NewAlloc(in.I, in.J)
		x.Set(0, 0, 1.5)
		x.Set(1, 0, -0.5)
		x.Set(1, 1, 2)
		neg[t2] = x
	}
	if err := in.CheckFeasible(neg, 1e-9); err == nil {
		t.Error("CheckFeasible accepted negative allocation")
	}

	// Repair turns solver round-off into a feasible slot: a negative entry
	// is clipped, a marginally under-served column scaled up, and an
	// all-zero column (user 1) served on cloud 0.
	x := NewAlloc(in.I, in.J)
	x.Set(0, 0, 0.999)
	x.Set(1, 0, -1e-9)
	in.Repair(x, make([]float64, in.J))
	if err := in.CheckFeasible(Schedule{x, x}, 1e-9); err != nil {
		t.Errorf("repaired slot still infeasible: %v", err)
	}
}

func TestStaticCoeffMatchesSlotStatic(t *testing.T) {
	// For any allocation x, Σ coeff·x must equal WOp·op + WSq·(sq − access
	// constant), the x-dependent part of the weighted static cost.
	in := smallInstance()
	in.WOp, in.WSq = 2, 3
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		x := NewAlloc(in.I, in.J)
		for k := range x.X {
			x.X[k] = rng.Float64()
		}
		for t2 := 0; t2 < in.T; t2++ {
			coeff := in.StaticCoeff(t2)
			viaCoeff := 0.0
			for k, c := range coeff {
				viaCoeff += c * x.X[k]
			}
			op, sq := in.SlotStatic(t2, x)
			accessConst := 0.0
			for j := 0; j < in.J; j++ {
				accessConst += in.AccessDelay[t2][j]
			}
			direct := in.WOp*op + in.WSq*(sq-accessConst)
			if math.Abs(viaCoeff-direct) > 1e-9 {
				t.Fatalf("slot %d: coeff path %g != direct %g", t2, viaCoeff, direct)
			}
		}
	}
}

// TestLemma1TransformationBound property-tests Lemma 1: for any schedule,
// P1 ≤ P0 + σ with σ = Σ_i b_i^out·C_i (comparing only the migration
// parts, as the other cost components are identical by construction).
func TestLemma1TransformationBound(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(2))}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := smallInstance()
		// Randomize prices so the bound is exercised broadly.
		for i := 0; i < in.I; i++ {
			in.MigOutPrice[i] = rng.Float64()
			in.MigInPrice[i] = rng.Float64()
		}
		tt := 1 + rng.Intn(6)
		in.T = tt
		in.OpPrice = in.OpPrice[:0]
		in.Attach = in.Attach[:0]
		in.AccessDelay = in.AccessDelay[:0]
		sched := make(Schedule, tt)
		for t2 := 0; t2 < tt; t2++ {
			in.OpPrice = append(in.OpPrice, []float64{rng.Float64(), rng.Float64()})
			in.Attach = append(in.Attach, []int{rng.Intn(2), rng.Intn(2)})
			in.AccessDelay = append(in.AccessDelay, []float64{rng.Float64(), rng.Float64()})
			x := NewAlloc(in.I, in.J)
			for k := range x.X {
				// Any nonnegative allocation within capacity: the lemma's
				// proof needs only |Σz_in − Σz_out| ≤ C_i, which holds
				// whenever x stays within capacity.
				x.X[k] = 1.5 * rng.Float64()
			}
			sched[t2] = x
		}
		p0, err := in.Evaluate(sched)
		if err != nil {
			return false
		}
		p1, err := in.EvaluateP1(sched)
		if err != nil {
			return false
		}
		return in.Total(p1) <= in.Total(p0)+in.Sigma()+1e-9
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInitialAllocDefaultsToZero(t *testing.T) {
	in := smallInstance()
	init := in.InitialAlloc()
	for _, v := range init.X {
		if v != 0 {
			t.Fatal("nil Init must yield the zero allocation")
		}
	}
	// And with Init set, the first slot's dynamic cost changes.
	sched := make(Schedule, in.T)
	for t2 := range sched {
		x := NewAlloc(in.I, in.J)
		x.Set(0, 0, 1)
		x.Set(1, 1, 2)
		sched[t2] = x
	}
	zeroInit, err := in.Evaluate(sched)
	if err != nil {
		t.Fatal(err)
	}
	warm := sched[0].Clone()
	in.Init = &warm
	warmInit, err := in.Evaluate(sched)
	if err != nil {
		t.Fatal(err)
	}
	if in.Total(warmInit) >= in.Total(zeroInit) {
		t.Errorf("warm init total %g should be below zero-init total %g",
			in.Total(warmInit), in.Total(zeroInit))
	}
}

func TestTotalAppliesWeights(t *testing.T) {
	in := smallInstance()
	in.WOp, in.WSq, in.WRc, in.WMg = 2, 3, 5, 7
	b := Breakdown{Op: 1, Sq: 10, Rc: 100, Mg: 1000}
	if got, want := in.Total(b), 2.0+30+500+7000; got != want {
		t.Errorf("Total = %g, want %g", got, want)
	}
	if b.Static() != 11 || b.Dynamic() != 1100 {
		t.Errorf("Static/Dynamic = %g/%g, want 11/1100", b.Static(), b.Dynamic())
	}
}
