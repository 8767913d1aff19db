package baseline

import (
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
)

// fdCheck compares an analytic gradient with central finite differences
// at a random interior point.
func fdCheck(t *testing.T, eval func(x, grad []float64) float64, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for k := range x {
		x[k] = 0.05 + rng.Float64()
	}
	grad := make([]float64, n)
	eval(x, grad)
	const h = 1e-6
	for trial := 0; trial < 30; trial++ {
		k := rng.Intn(n)
		orig := x[k]
		x[k] = orig + h
		fp := eval(x, nil)
		x[k] = orig - h
		fm := eval(x, nil)
		x[k] = orig
		fd := (fp - fm) / (2 * h)
		if math.Abs(fd-grad[k]) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("grad[%d] = %g, finite difference %g", k, grad[k], fd)
		}
	}
}

// TestOfflineObjectiveGradient covers the cross-slot coupling terms: each
// transition's hinge contributes to the gradients of two adjacent slots.
func TestOfflineObjectiveGradient(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 3, Horizon: 4, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	obj := (&Offline{}).state(in).obj
	obj.mu = 0.07
	fdCheck(t, obj.Eval, len(obj.coef), 35)
}

// TestOfflineObjectiveGradientWithWarmInit repeats the check with a
// nonzero pre-horizon allocation, covering the t == 0 branches, over the
// whole horizon and over a one-slot window (online-greedy's program).
func TestOfflineObjectiveGradientWithWarmInit(t *testing.T) {
	full, _, err := scenario.Rome(scenario.Config{Users: 3, Horizon: 3, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	init := model.NewAlloc(full.I, full.J)
	for k := range init.X {
		init.X[k] = rng.Float64()
	}
	full.Init = &init
	slot, err := full.Window(1, 1, init)
	if err != nil {
		t.Fatal(err)
	}
	for n, in := range []*model.Instance{full, slot} {
		obj := (&Offline{}).state(in).obj
		obj.mu = 0.04
		fdCheck(t, obj.Eval, len(obj.coef), int64(38+n))
	}
}

// TestOfflineSmoothedObjectiveUpperBoundsTrue verifies the softplus
// construction: the smoothed objective evaluated at any point dominates
// the true P0 objective (minus the constant access term).
func TestOfflineSmoothedObjectiveUpperBoundsTrue(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 4, Horizon: 3, Seed: 39})
	if err != nil {
		t.Fatal(err)
	}
	nIJ := in.I * in.J
	obj := (&Offline{}).state(in).obj
	obj.mu = 0.1
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, in.T*nIJ)
		sched := make(model.Schedule, in.T)
		for t2 := 0; t2 < in.T; t2++ {
			a := model.NewAlloc(in.I, in.J)
			for k := range a.X {
				a.X[k] = rng.Float64()
				x[t2*nIJ+k] = a.X[k]
			}
			sched[t2] = a
		}
		b, err := in.Evaluate(sched)
		if err != nil {
			t.Fatal(err)
		}
		access := 0.0
		for t2 := 0; t2 < in.T; t2++ {
			for j := 0; j < in.J; j++ {
				access += in.WSq * in.AccessDelay[t2][j]
			}
		}
		trueObj := in.Total(b) - access
		if sm := obj.Eval(x, nil); sm < trueObj-1e-9 {
			t.Fatalf("smoothed %g below true %g — softplus is an upper bound", sm, trueObj)
		}
	}
}
