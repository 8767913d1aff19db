package mobility

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"edgealloc/internal/geo"
)

// Trace is a user-mobility record over a horizon: for every slot, which
// cloud each user attaches to and the access delay (user ↔ access point
// distance in km) experienced there.
type Trace struct {
	T, J int
	// Attach[t][j] is the cloud user j connects to in slot t.
	Attach [][]int
	// AccessKm[t][j] is the geographic distance to that cloud in km.
	AccessKm [][]float64
}

// ErrBadTraceConfig reports invalid generation parameters.
var ErrBadTraceConfig = errors.New("mobility: bad trace configuration")

// ChurnRate returns the fraction of (user, slot) transitions in which the
// user switched clouds — the mobility intensity the allocation dynamics
// respond to.
func (tr *Trace) ChurnRate() float64 {
	if tr.T < 2 || tr.J == 0 {
		return 0
	}
	switches := 0
	for t := 1; t < tr.T; t++ {
		for j := 0; j < tr.J; j++ {
			if tr.Attach[t][j] != tr.Attach[t-1][j] {
				switches++
			}
		}
	}
	return float64(switches) / float64((tr.T-1)*tr.J)
}

// AttachFrequency returns, for each cloud, the fraction of (user, slot)
// pairs attached to it. The paper distributes capacity proportionally to
// this frequency (§V-A).
func (tr *Trace) AttachFrequency(nClouds int) []float64 {
	freq := make([]float64, nClouds)
	for t := 0; t < tr.T; t++ {
		for j := 0; j < tr.J; j++ {
			freq[tr.Attach[t][j]]++
		}
	}
	total := float64(tr.T * tr.J)
	for i := range freq {
		freq[i] /= total
	}
	return freq
}

// RandomWalk generates the §V-D synthetic mobility pattern: each user
// starts at a uniformly random station and, in every slot, either stays
// or moves to one of the adjacent stations, all with equal probability
// (e.g. three neighbours → 25% each, 25% stay). Access delay is zero
// because users are at the stations themselves.
func RandomWalk(adj [][]int, users, horizon int, rng *rand.Rand) (*Trace, error) {
	if users <= 0 || horizon <= 0 || len(adj) == 0 {
		return nil, fmt.Errorf("%w: users=%d horizon=%d stations=%d",
			ErrBadTraceConfig, users, horizon, len(adj))
	}
	tr := &Trace{T: horizon, J: users}
	pos := make([]int, users)
	for j := range pos {
		pos[j] = rng.Intn(len(adj))
	}
	for t := 0; t < horizon; t++ {
		att := make([]int, users)
		acc := make([]float64, users)
		for j := 0; j < users; j++ {
			if t > 0 {
				// Choose uniformly among {stay} ∪ neighbours.
				k := rng.Intn(len(adj[pos[j]]) + 1)
				if k > 0 {
					pos[j] = adj[pos[j]][k-1]
				}
			}
			att[j] = pos[j]
		}
		tr.Attach = append(tr.Attach, att)
		tr.AccessKm = append(tr.AccessKm, acc)
	}
	return tr, nil
}

// ChurnConfig parameterizes the controlled-churn synthetic trace: a
// mobility pattern whose per-slot switching intensity is an exact input
// rather than an emergent property, which is what the incremental
// solving tier's churn-proportional claims are measured against.
type ChurnConfig struct {
	// Users is the number of users, Horizon the number of slots.
	Users, Horizon int
	// Stations is the number of attachment points (clouds). Rate > 0
	// requires at least two, or no user could ever switch.
	Stations int
	// Rate is the fraction of users that switch attachment at every slot
	// transition, in [0, 1]. Exactly ⌈Rate·Users⌉ users move per slot —
	// a rotating window, so every user eventually moves at any Rate > 0
	// — and each mover lands on a uniformly random *different* station,
	// making Trace.ChurnRate reproduce Rate exactly (up to the ceiling).
	Rate float64
}

// Churn generates a trace with exactly controlled attachment churn:
// slot 0 attaches every user uniformly at random; every later slot
// re-attaches the next ⌈Rate·Users⌉ users in a rotating window and
// keeps everyone else in place. Access delay is zero, as in RandomWalk.
func Churn(cfg ChurnConfig, rng *rand.Rand) (*Trace, error) {
	if cfg.Users <= 0 || cfg.Horizon <= 0 || cfg.Stations <= 0 ||
		cfg.Rate < 0 || cfg.Rate > 1 || (cfg.Rate > 0 && cfg.Stations < 2) {
		return nil, fmt.Errorf("%w: users=%d horizon=%d stations=%d rate=%g",
			ErrBadTraceConfig, cfg.Users, cfg.Horizon, cfg.Stations, cfg.Rate)
	}
	movers := int(math.Ceil(cfg.Rate * float64(cfg.Users)))
	tr := &Trace{T: cfg.Horizon, J: cfg.Users}
	for t := 0; t < cfg.Horizon; t++ {
		att := make([]int, cfg.Users)
		acc := make([]float64, cfg.Users)
		if t == 0 {
			for j := range att {
				att[j] = rng.Intn(cfg.Stations)
			}
		} else {
			copy(att, tr.Attach[t-1])
			for m := 0; m < movers; m++ {
				j := ((t-1)*movers + m) % cfg.Users
				next := rng.Intn(cfg.Stations - 1)
				if next >= att[j] {
					next++ // uniform over stations ≠ current
				}
				att[j] = next
			}
		}
		tr.Attach = append(tr.Attach, att)
		tr.AccessKm = append(tr.AccessKm, acc)
	}
	return tr, nil
}

// TaxiConfig parameterizes the synthetic taxi model that stands in for
// the CRAWDAD Rome taxi dataset.
type TaxiConfig struct {
	// Users is the number of taxis (paper: around 300).
	Users int
	// Horizon is the number of one-minute slots (paper: 60 per case).
	Horizon int
	// SpeedKmPerSlot is the distance a taxi covers per slot; the default
	// 0.5 km/min ≈ 30 km/h matches urban traffic and yields an
	// attachment churn of ≈0.2 switches per user-minute, enough mobility
	// to expose the greedy policy's migration chasing (Fig 2's story).
	SpeedKmPerSlot float64
	// SpreadKm is the radius around the station centroid within which
	// waypoints are drawn (default: 1.5× the maximum station spread).
	SpreadKm float64
}

// Taxi generates a waypoint-mobility trace: every taxi starts near a
// random station, drives toward a random waypoint at roughly constant
// speed with Gaussian jitter, picks a new waypoint on arrival, and always
// attaches to the nearest station. The churn this produces is moderate —
// a few percent of taxis switch clouds per minute — which is the property
// of the real dataset that drives the paper's dynamics (DESIGN.md §3).
//
// The walk (every random draw, the remaining-trip distance and the step)
// runs on the calling goroutine in slot and user order. Every
// taxiChunkSlots slots it hands that chunk's positions to one helper
// goroutine, which looks up each position's nearest station and writes
// Attach[t][j] and AccessKm[t][j]. When all taxiRing chunk buffers are in
// flight the walker looks up a pending chunk itself instead of waiting,
// and after the last slot both drain what is left. A lookup reads only
// its own position and the immutable sites and writes only its own
// entry, so the trace is the serial loop's bit for bit whoever performs
// it and in whatever order. The ring bounds the positions held at once to
// taxiRing·min(taxiChunkSlots, Horizon)·Users points, 16 bytes each.
func Taxi(cfg TaxiConfig, sites []geo.Point, rng *rand.Rand) (*Trace, error) {
	pos, advance, err := taxiWalk(cfg, sites, rng)
	if err != nil {
		return nil, err
	}
	near := geo.NewSites(sites)
	users := cfg.Users
	tr := &Trace{T: cfg.Horizon, J: users,
		Attach: make([][]int, cfg.Horizon), AccessKm: make([][]float64, cfg.Horizon)}
	look := func(c *taxiChunk) {
		for k, att := range c.att {
			acc := c.acc[k]
			for j, p := range c.pos[k*users : (k+1)*users] {
				att[j], acc[j] = near.Nearest(p)
			}
		}
	}

	// Each channel can hold every buffer there is, so no send blocks.
	free, full := make(chan *taxiChunk, taxiRing), make(chan *taxiChunk, taxiRing)
	done := make(chan struct{})
	go func() {
		for c := range full {
			look(c)
			free <- c
		}
		close(done)
	}()
	made := 0
	take := func() *taxiChunk {
		select {
		case c := <-free:
			return c
		default:
		}
		if made < taxiRing {
			made++
			return &taxiChunk{pos: make([]geo.Point, 0, min(taxiChunkSlots, cfg.Horizon)*users)}
		}
		// Every buffer is in flight: look one up here rather than wait.
		select {
		case c := <-free:
			return c
		case c := <-full:
			look(c)
			return c
		}
	}

	var c *taxiChunk
	t0 := 0
	for t := 0; t < cfg.Horizon; t++ {
		if c == nil {
			c, t0 = take(), t
			c.pos = c.pos[:0]
		}
		if t > 0 {
			for j := range users {
				advance(j)
			}
		}
		c.pos = append(c.pos, pos...)
		if len(c.pos) < cap(c.pos) && t < cfg.Horizon-1 {
			continue
		}
		for s := t0; s <= t; s++ {
			tr.Attach[s] = make([]int, users)
			tr.AccessKm[s] = make([]float64, users)
		}
		c.att, c.acc = tr.Attach[t0:t+1], tr.AccessKm[t0:t+1]
		full <- c
		c = nil
	}
	close(full)
	for c := range full {
		look(c)
	}
	<-done
	return tr, nil
}

// The pipeline's constants: slots per hand-off and chunk buffers in
// flight, one of them possibly the walker's own.
const (
	taxiChunkSlots = 32
	taxiRing       = 4
)

// taxiChunk is one hand-off: the positions of consecutive slots, slot
// major, and the rows their lookups fill.
type taxiChunk struct {
	pos []geo.Point
	att [][]int
	acc [][]float64
}

// taxiWalk validates cfg, frames the city around the sites and places
// every taxi at its start with its first waypoint. It returns the taxis'
// positions and advance, which moves taxi j through one slot; every draw
// comes from rng.
func taxiWalk(cfg TaxiConfig, sites []geo.Point, rng *rand.Rand) ([]geo.Point, func(j int), error) {
	if cfg.Users <= 0 || cfg.Horizon <= 0 || len(sites) == 0 {
		return nil, nil, fmt.Errorf("%w: users=%d horizon=%d sites=%d",
			ErrBadTraceConfig, cfg.Users, cfg.Horizon, len(sites))
	}
	speed := cfg.SpeedKmPerSlot
	if speed <= 0 {
		speed = 0.5
	}

	// City frame: centroid and extent of the sites.
	var cLat, cLon float64
	for _, s := range sites {
		cLat += s.Lat
		cLon += s.Lon
	}
	center := geo.Point{Lat: cLat / float64(len(sites)), Lon: cLon / float64(len(sites))}
	maxR := 0.0
	for _, s := range sites {
		if d := geo.DistanceKm(center, s); d > maxR {
			maxR = d
		}
	}
	spread := cfg.SpreadKm
	if spread <= 0 {
		spread = 1.5 * maxR
	}
	// Degrees per km in the two axes at this latitude (city-scale flat
	// approximation).
	latPerKm := 1.0 / 110.574
	lonPerKm := 1.0 / (111.320 * cosDeg(center.Lat))

	randomPoint := func() geo.Point {
		// Uniform in a disc of radius spread around the center.
		for {
			dx := (2*rng.Float64() - 1) * spread
			dy := (2*rng.Float64() - 1) * spread
			if dx*dx+dy*dy <= spread*spread {
				return geo.Point{
					Lat: center.Lat + dy*latPerKm,
					Lon: center.Lon + dx*lonPerKm,
				}
			}
		}
	}

	pos := make([]geo.Point, cfg.Users)
	dst := make([]geo.Point, cfg.Users)
	for j := range pos {
		// Start near a random station with ~300 m scatter.
		s := sites[rng.Intn(len(sites))]
		pos[j] = geo.Point{
			Lat: s.Lat + 0.3*rng.NormFloat64()*latPerKm,
			Lon: s.Lon + 0.3*rng.NormFloat64()*lonPerKm,
		}
		dst[j] = randomPoint()
	}

	advance := func(j int) {
		remain := geo.DistanceKm(pos[j], dst[j])
		// Per-slot speed jitter: ±30%.
		step := speed * (1 + 0.3*rng.NormFloat64())
		if step < 0 {
			step = 0
		}
		if remain <= step {
			pos[j] = dst[j]
			dst[j] = randomPoint()
		} else {
			pos[j] = geo.Interpolate(pos[j], dst[j], step/remain)
		}
	}
	return pos, advance, nil
}

func cosDeg(deg float64) float64 {
	return math.Cos(deg * math.Pi / 180)
}
