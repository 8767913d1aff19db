package core

import (
	"testing"

	"edgealloc/internal/baseline"
	"edgealloc/internal/scenario"
)

// TestCertificateNeverExceedsExactOptimum sweeps seeds and both scenario
// families, asserting on every run that the certified lower bound stays
// below the exact LP optimum of P0 and of the transformed P1 — the weak
// duality guarantee the certificate is built on. (testing/quick is not
// used here because each trial costs a full solve; a fixed seed sweep
// keeps the runtime bounded while still varying prices, traces, and
// workloads.)
func TestCertificateNeverExceedsExactOptimum(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-solve sweep")
	}
	for seed := int64(101); seed <= 106; seed++ {
		for _, family := range []string{"rome", "walk"} {
			cfg := scenario.Config{Users: 4, Horizon: 4, Seed: seed}
			in, _, err := scenario.Rome(cfg)
			if family == "walk" {
				in, _, err = scenario.RandomWalkRome(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			alg := NewOnlineApprox(in, Options{})
			sched, err := alg.Run()
			if err != nil {
				t.Fatalf("%s/%d: %v", family, seed, err)
			}
			cert, err := alg.Certificate()
			if err != nil {
				t.Fatalf("%s/%d: %v", family, seed, err)
			}
			if v := cert.Feasibility.Max(); v > 1e-5 {
				t.Errorf("%s/%d: dual residual %g (construction should be exact up to solver precision)", family, seed, v)
			}
			_, opt, err := baseline.ExactOffline(in)
			if err != nil {
				t.Fatalf("%s/%d: %v", family, seed, err)
			}
			slack := 1e-6 * (1 + opt)
			if cert.LowerBoundP0() > opt+slack {
				t.Errorf("%s/%d: certified %g exceeds exact optimum %g",
					family, seed, cert.LowerBoundP0(), opt)
			}
			b, err := in.Evaluate(sched)
			if err != nil {
				t.Fatal(err)
			}
			if total := in.Total(b); total < opt-slack {
				t.Errorf("%s/%d: online %g beat the offline optimum %g", family, seed, total, opt)
			}
		}
	}
}
