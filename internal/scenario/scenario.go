// Package scenario assembles complete problem instances from the
// substrate generators, following the experimental settings of §V-A:
// 15 edge clouds at Rome metro stations, delays proportional to
// geographic distance, capacity distributed proportionally to attachment
// frequency with total capacity 1.25× the total workload (80% target
// utilization), Gaussian operation prices with base inversely
// proportional to capacity, three ISP bandwidth clusters, and truncated
// Gaussian reconfiguration prices.
package scenario

import (
	"fmt"
	"math/rand"

	"edgealloc/internal/geo"
	"edgealloc/internal/mobility"
	"edgealloc/internal/model"
	"edgealloc/internal/pricing"
	"edgealloc/internal/workload"
)

// Config selects the scenario parameters. Zero values take the defaults
// noted on each field. §V-A's other settings are fixed: 80% utilization,
// base operation prices mean(C)/C_i, and taxis at the mobility package's
// urban speed.
type Config struct {
	// Users is the number of mobile users (default 40; the paper used
	// ~300, which remains reachable via flags on the harness).
	Users int
	// Horizon is the number of time slots (default 30; paper: 60).
	Horizon int
	// WorkloadDist is one of "power", "uniform", "normal" (default
	// "power", the paper's primary case).
	WorkloadDist string
	// Seed drives all randomness; runs are reproducible per seed.
	Seed int64
	// Mu is the weight of the dynamic costs relative to the static costs
	// (the paper's μ, Fig 4). Default 1.
	Mu float64
	// MigScale scales the total (out+in) migration price mean (default 1).
	MigScale float64
	// ReconfMean is the mean reconfiguration price (default 1).
	ReconfMean float64
	// SqPricePerKm converts geographic distance to service-quality cost
	// (default 0.5).
	SqPricePerKm float64
	// PriceVolatility is the per-slot operation-price standard deviation
	// as a fraction of the base price (default 0.5, the paper's setting).
	PriceVolatility float64
}

func (c Config) withDefaults() Config {
	if c.Users == 0 {
		c.Users = 40
	}
	if c.Horizon == 0 {
		c.Horizon = 30
	}
	if c.WorkloadDist == "" {
		c.WorkloadDist = "power"
	}
	if c.Mu == 0 {
		c.Mu = 1
	}
	if c.MigScale == 0 {
		c.MigScale = 1
	}
	if c.ReconfMean == 0 {
		c.ReconfMean = 1
	}
	if c.SqPricePerKm == 0 {
		c.SqPricePerKm = 0.5
	}
	return c
}

// Rome builds the real-world-style scenario: taxis moving through central
// Rome attach to the nearest of the 15 metro-station edge clouds.
func Rome(cfg Config) (*model.Instance, *mobility.Trace, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sites := mobility.StationPoints()
	tr, err := mobility.Taxi(mobility.TaxiConfig{Users: cfg.Users, Horizon: cfg.Horizon}, sites, rng)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: building taxi trace: %w", err)
	}
	in, err := assemble(cfg, sites, tr, rng)
	if err != nil {
		return nil, nil, err
	}
	return in, tr, nil
}

// RandomWalkRome builds the §V-D synthetic scenario: users ride the metro
// graph with a uniform stay-or-move random walk.
func RandomWalkRome(cfg Config) (*model.Instance, *mobility.Trace, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sites := mobility.StationPoints()
	tr, err := mobility.RandomWalk(mobility.RomeMetroAdjacency(), cfg.Users, cfg.Horizon, rng)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: building random walk: %w", err)
	}
	in, err := assemble(cfg, sites, tr, rng)
	if err != nil {
		return nil, nil, err
	}
	return in, tr, nil
}

// utilization is §V-A's target system utilization: capacity totals
// Λ/utilization = 1.25Λ.
const utilization = 0.8

// assemble turns a mobility trace into a full instance per §V-A.
func assemble(cfg Config, sites []geo.Point, tr *mobility.Trace, rng *rand.Rand) (*model.Instance, error) {
	gen, err := workload.ByName(cfg.WorkloadDist)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	loads := workload.Sample(gen, cfg.Users, rng)
	total := 0.0
	for _, l := range loads {
		total += l
	}

	// Capacity ∝ attachment frequency with a 1% floor, total = Λ/utilization.
	nClouds := len(sites)
	freq := tr.AttachFrequency(nClouds)
	const floor = 0.01
	weightSum := 0.0
	for i := range freq {
		if freq[i] < floor {
			freq[i] = floor
		}
		weightSum += freq[i]
	}
	capTotal := total / utilization
	capacity := make([]float64, nClouds)
	for i := range capacity {
		capacity[i] = capTotal * freq[i] / weightSum
	}

	// Delays from geography, scaled to cost units.
	inter := geo.DistanceMatrixKm(sites)
	for i := range inter {
		for k := range inter[i] {
			inter[i][k] *= cfg.SqPricePerKm
		}
	}
	access := make([][]float64, cfg.Horizon)
	for t := range access {
		row := make([]float64, cfg.Users)
		for j := range row {
			row[j] = tr.AccessKm[t][j] * cfg.SqPricePerKm
		}
		access[t] = row
	}

	out, inPrice := pricing.BandwidthPrices(nClouds, cfg.MigScale, rng)
	in := &model.Instance{
		I:           nClouds,
		J:           cfg.Users,
		T:           cfg.Horizon,
		Capacity:    capacity,
		InterDelay:  inter,
		Workload:    loads,
		OpPrice:     pricing.OpPrices(capacity, cfg.Horizon, cfg.PriceVolatility, rng),
		ReconfPrice: pricing.ReconfPrices(nClouds, cfg.ReconfMean, cfg.ReconfMean/2, rng),
		MigOutPrice: out,
		MigInPrice:  inPrice,
		Attach:      tr.Attach,
		AccessDelay: access,
		WOp:         1,
		WSq:         1,
		WRc:         cfg.Mu,
		WMg:         cfg.Mu,
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: assembled instance invalid: %w", err)
	}
	return in, nil
}
