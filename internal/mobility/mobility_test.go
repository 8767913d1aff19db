package mobility

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"edgealloc/internal/geo"
)

func TestRomeStationsAndGraph(t *testing.T) {
	if len(RomeStations) != 15 {
		t.Fatalf("got %d stations, want 15 (paper §V-A)", len(RomeStations))
	}
	adj := RomeMetroAdjacency()
	if len(adj) != 15 {
		t.Fatalf("adjacency size %d, want 15", len(adj))
	}
	// Graph is undirected and connected.
	for u, ns := range adj {
		if len(ns) == 0 {
			t.Errorf("station %d (%s) isolated", u, RomeStations[u].Name)
		}
		for _, v := range ns {
			back := false
			for _, w := range adj[v] {
				if w == u {
					back = true
				}
			}
			if !back {
				t.Errorf("edge %d->%d not symmetric", u, v)
			}
		}
	}
	seen := make([]bool, len(adj))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("station %d (%s) unreachable from Cornelia", i, RomeStations[i].Name)
		}
	}
	// Termini is the A/B interchange: degree 3 (Repubblica, Vittorio, Cavour).
	if len(adj[8]) != 3 {
		t.Errorf("Termini degree %d, want 3", len(adj[8]))
	}
	// All stations within ~10 km of each other (central Rome).
	pts := StationPoints()
	for i := range pts {
		for k := range pts {
			if d := geo.DistanceKm(pts[i], pts[k]); d > 10 {
				t.Errorf("stations %d-%d are %g km apart — not central Rome", i, k, d)
			}
		}
	}
}

func TestRandomWalkBasics(t *testing.T) {
	adj := RomeMetroAdjacency()
	tr, err := RandomWalk(adj, 50, 40, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.T != 40 || tr.J != 50 {
		t.Fatalf("shape %dx%d, want 40x50", tr.T, tr.J)
	}
	for t2 := 0; t2 < tr.T; t2++ {
		for j := 0; j < tr.J; j++ {
			if a := tr.Attach[t2][j]; a < 0 || a >= len(adj) {
				t.Fatalf("attach out of range: %d", a)
			}
			if tr.AccessKm[t2][j] != 0 {
				t.Fatal("random-walk users are at stations; access delay must be 0")
			}
			// Moves only along edges (or stays).
			if t2 > 0 {
				prev, cur := tr.Attach[t2-1][j], tr.Attach[t2][j]
				if prev != cur {
					onEdge := false
					for _, v := range adj[prev] {
						if v == cur {
							onEdge = true
						}
					}
					if !onEdge {
						t.Fatalf("user %d teleported %d -> %d", j, prev, cur)
					}
				}
			}
		}
	}
	// The walk must actually move users around.
	if c := tr.ChurnRate(); c < 0.3 || c > 0.95 {
		t.Errorf("churn rate %g outside the plausible random-walk band", c)
	}
}

func TestRandomWalkRejectsBadConfig(t *testing.T) {
	adj := RomeMetroAdjacency()
	rng := rand.New(rand.NewSource(1))
	for _, args := range [][2]int{{0, 10}, {10, 0}} {
		if _, err := RandomWalk(adj, args[0], args[1], rng); !errors.Is(err, ErrBadTraceConfig) {
			t.Errorf("RandomWalk(%v) error = %v, want ErrBadTraceConfig", args, err)
		}
	}
	if _, err := RandomWalk(nil, 5, 5, rng); !errors.Is(err, ErrBadTraceConfig) {
		t.Error("RandomWalk accepted empty graph")
	}
}

func TestTaxiTraceProperties(t *testing.T) {
	sites := StationPoints()
	tr, err := Taxi(TaxiConfig{Users: 120, Horizon: 60}, sites, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.T != 60 || tr.J != 120 {
		t.Fatalf("shape %dx%d, want 60x120", tr.T, tr.J)
	}
	for t2 := 0; t2 < tr.T; t2++ {
		for j := 0; j < tr.J; j++ {
			if a := tr.Attach[t2][j]; a < 0 || a >= len(sites) {
				t.Fatalf("attach out of range: %d", a)
			}
			if d := tr.AccessKm[t2][j]; d < 0 || d > 25 {
				t.Fatalf("implausible access distance %g km", d)
			}
		}
	}
	// Moderate churn: taxis move continuously, so some switching happens
	// every minute, but far less than the random walk's.
	churn := tr.ChurnRate()
	if churn <= 0.005 || churn > 0.5 {
		t.Errorf("taxi churn %g outside the moderate band (0.005, 0.5]", churn)
	}
	// Every cloud should see some attachment overall (frequency-based
	// capacity planning needs this signal).
	freq := tr.AttachFrequency(len(sites))
	sum := 0.0
	nonzero := 0
	for _, f := range freq {
		sum += f
		if f > 0 {
			nonzero++
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("frequencies sum to %g, want 1", sum)
	}
	if nonzero < len(sites)/2 {
		t.Errorf("only %d of %d clouds ever attached", nonzero, len(sites))
	}
}

// taxiSerial is Taxi as one loop: each slot's walk and then its lookups,
// user by user, on the calling goroutine. TestTaxiMatchesSerial holds the
// pipelined Taxi to it.
func taxiSerial(cfg TaxiConfig, sites []geo.Point, rng *rand.Rand) (*Trace, error) {
	pos, advance, err := taxiWalk(cfg, sites, rng)
	if err != nil {
		return nil, err
	}
	near := geo.NewSites(sites)
	tr := &Trace{T: cfg.Horizon, J: cfg.Users}
	for t := 0; t < cfg.Horizon; t++ {
		att := make([]int, cfg.Users)
		acc := make([]float64, cfg.Users)
		for j := 0; j < cfg.Users; j++ {
			if t > 0 {
				advance(j)
			}
			att[j], acc[j] = near.Nearest(pos[j])
		}
		tr.Attach = append(tr.Attach, att)
		tr.AccessKm = append(tr.AccessKm, acc)
	}
	return tr, nil
}

// TestTaxiMatchesSerial requires Taxi's pipelined trace to be the serial
// loop's bit for bit, and the random stream to be left where the serial
// loop leaves it, on one P and on two: horizons on either side of every
// chunk edge, the Rome stations and a single site, and a speed at which
// every taxi reaches its waypoint every slot, so waypoint draws interleave
// with the jitter draws.
func TestTaxiMatchesSerial(t *testing.T) {
	rome := StationPoints()
	one := []geo.Point{rome[8]}
	type sitesCase struct {
		name   string
		pts    []geo.Point
		spread float64
	}
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, sc := range []sitesCase{{"rome", rome, 0}, {"single", one, 3}} {
				for _, users := range []int{1, 7, 60, 300} {
					for _, horizon := range []int{1, taxiChunkSlots - 1, taxiChunkSlots, taxiChunkSlots + 1, 1024} {
						for _, speed := range []float64{0, 100} {
							for _, seed := range []int64{1, 20140212} {
								if users*horizon > 60*1024 && (seed != 1 || speed != 0) {
									continue
								}
								cfg := TaxiConfig{Users: users, Horizon: horizon, SpeedKmPerSlot: speed, SpreadKm: sc.spread}
								name := fmt.Sprintf("procs=%d/%s/users=%d/horizon=%d/speed=%g/seed=%d",
									procs, sc.name, users, horizon, speed, seed)
								rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
								got, err := Taxi(cfg, sc.pts, rngA)
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								want, err := taxiSerial(cfg, sc.pts, rngB)
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								tracesEqual(t, name, got, want)
								if a, b := rngA.Int63(), rngB.Int63(); a != b {
									t.Errorf("%s: the random stream continues at %d, want %d", name, a, b)
								}
							}
						}
					}
				}
			}
		}()
	}
}

// tracesEqual reports the first entry where two traces differ in any bit.
func tracesEqual(t *testing.T, name string, got, want *Trace) {
	t.Helper()
	if got.T != want.T || got.J != want.J || len(got.Attach) != want.T || len(got.AccessKm) != want.T {
		t.Fatalf("%s: shape %dx%d (%d, %d rows), want %dx%d", name,
			got.T, got.J, len(got.Attach), len(got.AccessKm), want.T, want.J)
	}
	for s := range want.Attach {
		for j := range want.Attach[s] {
			a, d := got.Attach[s][j], got.AccessKm[s][j]
			if a != want.Attach[s][j] || math.Float64bits(d) != math.Float64bits(want.AccessKm[s][j]) {
				t.Fatalf("%s: slot %d user %d attaches to %d at %v km, want %d at %v km", name,
					s, j, a, d, want.Attach[s][j], want.AccessKm[s][j])
			}
		}
	}
}

func TestTaxiRejectsBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sites := StationPoints()
	if _, err := Taxi(TaxiConfig{Users: 0, Horizon: 5}, sites, rng); !errors.Is(err, ErrBadTraceConfig) {
		t.Error("Taxi accepted zero users")
	}
	if _, err := Taxi(TaxiConfig{Users: 5, Horizon: 0}, sites, rng); !errors.Is(err, ErrBadTraceConfig) {
		t.Error("Taxi accepted zero horizon")
	}
	if _, err := Taxi(TaxiConfig{Users: 5, Horizon: 5}, nil, rng); !errors.Is(err, ErrBadTraceConfig) {
		t.Error("Taxi accepted no sites")
	}
}

func TestTraceDeterministicWithSeed(t *testing.T) {
	sites := StationPoints()
	a, err := Taxi(TaxiConfig{Users: 20, Horizon: 30}, sites, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Taxi(TaxiConfig{Users: 20, Horizon: 30}, sites, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for t2 := range a.Attach {
		for j := range a.Attach[t2] {
			if a.Attach[t2][j] != b.Attach[t2][j] {
				t.Fatal("same seed produced different traces")
			}
		}
	}
}

func TestChurnRateEdgeCases(t *testing.T) {
	tr := &Trace{T: 1, J: 3, Attach: [][]int{{0, 1, 2}}}
	if c := tr.ChurnRate(); c != 0 {
		t.Errorf("single-slot churn = %g, want 0", c)
	}
	tr2 := &Trace{T: 2, J: 2, Attach: [][]int{{0, 1}, {1, 1}}}
	if c := tr2.ChurnRate(); c != 0.5 {
		t.Errorf("churn = %g, want 0.5", c)
	}
}

func TestChurnTraceExactRate(t *testing.T) {
	for _, rate := range []float64{0, 0.05, 0.25, 1} {
		rng := rand.New(rand.NewSource(3))
		tr, err := Churn(ChurnConfig{Users: 40, Horizon: 20, Stations: 6, Rate: rate}, rng)
		if err != nil {
			t.Fatalf("rate %g: %v", rate, err)
		}
		// Every mover lands on a different station, so the measured churn
		// is exactly ⌈rate·J⌉/J.
		want := math.Ceil(rate*40) / 40
		if got := tr.ChurnRate(); got != want {
			t.Errorf("rate %g: measured churn %g, want exactly %g", rate, got, want)
		}
		for tt := range tr.AccessKm {
			for j, d := range tr.AccessKm[tt] {
				if d != 0 {
					t.Fatalf("slot %d user %d: access %g, want 0", tt, j, d)
				}
			}
		}
	}
}

func TestChurnRejectsBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []ChurnConfig{
		{Users: 0, Horizon: 5, Stations: 3, Rate: 0.1},
		{Users: 5, Horizon: 0, Stations: 3, Rate: 0.1},
		{Users: 5, Horizon: 5, Stations: 0, Rate: 0},
		{Users: 5, Horizon: 5, Stations: 1, Rate: 0.1}, // no second station to move to
		{Users: 5, Horizon: 5, Stations: 3, Rate: -0.1},
		{Users: 5, Horizon: 5, Stations: 3, Rate: 1.01},
	}
	for _, cfg := range bad {
		if _, err := Churn(cfg, rng); !errors.Is(err, ErrBadTraceConfig) {
			t.Errorf("Churn(%+v) err = %v, want ErrBadTraceConfig", cfg, err)
		}
	}
}
