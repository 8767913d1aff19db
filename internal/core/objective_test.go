package core

import (
	"math"
	"math/rand"
	"testing"

	"edgealloc/internal/model"
)

// TestObjectiveLayoutInvariant is the property that makes one kernel
// enough: for a random ragged layout (containing the carryover support,
// as every layout the solve loops build does) and for each total term —
// the reconfiguration entropy, the entropy with a frozen offset, the
// consensus penalty — the packed objective's value and gradient equal the
// dense layout's at the embedded point exactly, on the exact and fast
// tiers. ε₂ is a power of two so the fast tier's reciprocal is exact and a
// pruned pair's ratio is exactly 1.
func TestObjectiveLayoutInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	for trial := 0; trial < 30; trial++ {
		in := smallRandomInstance(rng)
		n := in.I * in.J
		eps1 := 0.3 + rng.Float64()
		eps2 := []float64{0.5, 1, 2}[rng.Intn(3)]
		prev := model.Alloc{I: in.I, J: in.J, X: make([]float64, n)}
		for k := range prev.X {
			if rng.Intn(3) == 0 {
				prev.X[k] = 3 * rng.Float64()
			}
		}
		b := model.NewCandidateBuilder(in.I, in.J)
		for k := 0; k < n; k++ {
			if prev.X[k] != 0 || rng.Intn(2) == 0 {
				b.Add(k/in.J, k%in.J)
			}
		}
		var cs model.CandidateSet
		b.Build(&cs)
		// The embedded point: zero off the layout; on it a mix of zeros,
		// entries equal to x' (the exact tier's log skip), and fresh values.
		x := make([]float64, n)
		for k := range x {
			if b.Contains(k/in.J, k%in.J) {
				switch rng.Intn(3) {
				case 0:
					x[k] = prev.X[k]
				case 1:
					x[k] = 3 * rng.Float64()
				}
			}
		}
		off := make([]float64, in.I)
		target := make([]float64, in.I)
		for i := range off {
			off[i] = rng.Float64()
			target[i] = 5 * rng.Float64()
		}

		for _, fast := range []bool{false, true} {
			dense := newP2ObjectiveConst(in, eps1, eps2, fast)
			dense.coef = make([]float64, n)
			dense.bind(in, rng.Intn(in.T), prev)
			dense.prepare()
			var p p2Program
			p.obj = newPackedObjective(in.I, eps1, eps2, fast)
			p.obj.rcFac, p.obj.prevTot = dense.rcFac, dense.prevTot
			p.gather(dense, &cs, 0, x)

			for _, term := range []struct {
				name        string
				off, target []float64
			}{{"entropy", nil, nil}, {"entropy+offset", off, nil}, {"consensus", nil, target}} {
				for _, o := range []*p2Objective{dense, &p.obj} {
					o.totOff, o.target, o.rho = term.off, term.target, 2.5
				}
				gd := make([]float64, n)
				gp := make([]float64, cs.NNZ())
				fd, fp := dense.Eval(x, gd), p.obj.Eval(p.warm, gp)
				vd, vp := dense.Eval(x, nil), p.obj.Eval(p.warm, nil)
				if math.Float64bits(fd) != math.Float64bits(fp) || math.Float64bits(vd) != math.Float64bits(vp) {
					t.Fatalf("trial %d %s fast=%v: value %v/%v packed vs %v/%v dense",
						trial, term.name, fast, fp, vp, fd, vd)
				}
				// alm's Newton path reports the gradient pass's value as f(x);
				// the value-only pass sums the same terms in another order.
				if math.Abs(fd-vd) > 1e-14*(1+math.Abs(vd)) {
					t.Fatalf("trial %d %s fast=%v: value %v with the gradient, %v without", trial, term.name, fast, fd, vd)
				}
				for i := 0; i < in.I; i++ {
					for k := cs.RowPtr[i]; k < cs.RowPtr[i+1]; k++ {
						if want := gd[i*in.J+cs.Cols[k]]; math.Float64bits(gp[k]) != math.Float64bits(want) {
							t.Fatalf("trial %d %s fast=%v: grad(%d,%d) = %v packed vs %v dense",
								trial, term.name, fast, i, cs.Cols[k], gp[k], want)
						}
					}
				}
			}
		}
	}
}
