package baseline

import (
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
)

func TestProximalFeasibleAndReasonable(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 8, Horizon: 6, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	p := &Proximal{}
	s, err := p.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.CheckFeasible(s, 1e-5); err != nil {
		t.Fatal(err)
	}
	b, err := in.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity envelope: no worse than 3x the entropy variant on the same
	// instance (the ablation should be in the same league).
	alg := core.NewOnlineApprox(in, core.Options{})
	sa, err := alg.Run()
	if err != nil {
		t.Fatal(err)
	}
	ba, err := in.Evaluate(sa)
	if err != nil {
		t.Fatal(err)
	}
	if in.Total(b) > 3*in.Total(ba) {
		t.Errorf("proximal %g wildly worse than entropy %g", in.Total(b), in.Total(ba))
	}
}

func TestProximalSigmaControlsInertia(t *testing.T) {
	// Small σ = heavy movement penalty: the schedule should migrate less
	// (lower migration cost) than with large σ.
	in, _, err := scenario.Rome(scenario.Config{Users: 6, Horizon: 8, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	sticky, err := (&Proximal{Sigma: 0.05}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := (&Proximal{Sigma: 50}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	bSticky, err := in.Evaluate(sticky)
	if err != nil {
		t.Fatal(err)
	}
	bLoose, err := in.Evaluate(loose)
	if err != nil {
		t.Fatal(err)
	}
	if bSticky.Mg > bLoose.Mg+1e-9 {
		t.Errorf("sticky σ migrated more (%g) than loose σ (%g)", bSticky.Mg, bLoose.Mg)
	}
}

func TestProximalObjectiveGradient(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 4, Horizon: 2, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(54))
	prev := model.NewAlloc(in.I, in.J)
	for k := range prev.X {
		prev.X[k] = rng.Float64()
	}
	obj := &proximalObjective{
		nI:      in.I,
		nJ:      in.J,
		coef:    in.StaticCoeff(0),
		prev:    prev.X,
		prevTot: prev.CloudTotals(),
		rcFac:   make([]float64, in.I),
		mgFac:   make([]float64, in.I),
		tot:     make([]float64, in.I),
	}
	for i := 0; i < in.I; i++ {
		obj.rcFac[i] = in.ReconfPrice[i]
		obj.mgFac[i] = in.MigOutPrice[i] + in.MigInPrice[i]
	}
	n := in.I * in.J
	x := make([]float64, n)
	for k := range x {
		x[k] = rng.Float64()
	}
	grad := make([]float64, n)
	obj.Eval(x, grad)
	const h = 1e-6
	for trial := 0; trial < 20; trial++ {
		k := rng.Intn(n)
		orig := x[k]
		x[k] = orig + h
		fp := obj.Eval(x, nil)
		x[k] = orig - h
		fm := obj.Eval(x, nil)
		x[k] = orig
		fd := (fp - fm) / (2 * h)
		if math.Abs(fd-grad[k]) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("grad[%d] = %g, finite difference %g", k, grad[k], fd)
		}
	}
}
