package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"edgealloc/internal/model"
)

// citySeed fixes the synthetic deployment: the I cloud sites (hence every
// inter-cloud delay), the capacity shares and price levels, and the
// residents — each user's demand and where it is attached when the
// horizon opens, hence the pre-horizon placement and the cold first slot.
// The workload seed draws the day on top: who moves where in every later
// slot, their access delays, and the price drift. Measured on the flagship
// size, a fresh city per seed moves cost_per_slot by ~6% between seeds and
// the per-slot iteration count by ~10%; fresh residents in a fixed city
// still make the cold slot stop at outer iteration 8 or 12 by the draw,
// which made setup_s bimodal (0.30 or 0.37 s on serve_stream) and its
// median over ten seeds a matter of which seeds they were.
const citySeed = 20140212

// churnInstance is the benchmark's own copy of the controlled-churn
// synthetic construction (internal/perf.SyntheticInstance geometry +
// ChurnInstance mobility), so a later change to internal/perf cannot
// change a workload: clouds on a 100x100 km plane with quadratic
// distance-derived delays, operation prices on a ±2% multiplicative
// per-slot walk, exactly ⌈churn·J⌉ users re-attaching per slot in a
// rotating window, and a sparse greedy pre-horizon placement so slot 0
// starts mid-stream.
//
// Capacities are 1.35–2.15x the mean load where internal/perf has
// 1.2–2.0x. At 1.2 one population in eight puts the shard coordinator in
// a capacity-binding regime from slot 0 — 3–5 coordination rounds per slot
// instead of 1 and 3.5x the latency (2 of 16 episodes tried; none at
// 1.35) — so a seed's figures said which regime its draw landed in, not
// how fast the code was. The paper's 80%-utilization setting is what
// rome_exact runs.
func churnInstance(I, J, T int, churn float64, seed int64) (*model.Instance, error) {
	city := rand.New(rand.NewSource(citySeed))
	day := rand.New(rand.NewSource(seed))
	in := &model.Instance{I: I, J: J, T: T, WOp: 1, WSq: 1, WRc: 1, WMg: 1}

	xs, ys := make([]float64, I), make([]float64, I)
	for i := range xs {
		xs[i], ys[i] = 100*city.Float64(), 100*city.Float64()
	}
	in.InterDelay = make([][]float64, I)
	for i := range in.InterDelay {
		in.InterDelay[i] = make([]float64, I)
		for k := range in.InterDelay[i] {
			dx, dy := xs[i]-xs[k], ys[i]-ys[k]
			in.InterDelay[i][k] = 0.04 * (dx*dx + dy*dy) / 100
		}
	}

	in.Workload = make([]float64, J)
	total := 0.0
	for j := range in.Workload {
		in.Workload[j] = 0.5 + 2*city.Float64()
		total += in.Workload[j]
	}
	in.Capacity = make([]float64, I)
	in.ReconfPrice = make([]float64, I)
	in.MigOutPrice = make([]float64, I)
	in.MigInPrice = make([]float64, I)
	in.OpPrice = make([][]float64, T)
	in.OpPrice[0] = make([]float64, I)
	for i := 0; i < I; i++ {
		in.Capacity[i] = total / float64(I) * (1.35 + 0.8*city.Float64())
		in.ReconfPrice[i] = 0.5 + city.Float64()
		in.MigOutPrice[i] = 0.2 + 0.6*city.Float64()
		in.MigInPrice[i] = 0.2 + 0.6*city.Float64()
		in.OpPrice[0][i] = 0.5 + city.Float64()
	}
	for t := 1; t < T; t++ {
		in.OpPrice[t] = make([]float64, I)
		for i := range in.OpPrice[t] {
			in.OpPrice[t][i] = in.OpPrice[t-1][i] * (1 + 0.02*(2*day.Float64()-1))
		}
	}

	in.Attach = make([][]int, T)
	in.AccessDelay = make([][]float64, T)
	in.Attach[0] = make([]int, J)
	in.AccessDelay[0] = make([]float64, J)
	for j := 0; j < J; j++ {
		in.Attach[0][j] = city.Intn(I)
		in.AccessDelay[0][j] = 0.5 * city.Float64()
	}
	movers := int(math.Ceil(churn * float64(J)))
	for t := 1; t < T; t++ {
		in.Attach[t] = append([]int(nil), in.Attach[t-1]...)
		in.AccessDelay[t] = append([]float64(nil), in.AccessDelay[t-1]...)
		for m := 0; m < movers; m++ {
			j := ((t-1)*movers + m) % J
			in.Attach[t][j] = day.Intn(I)
			in.AccessDelay[t][j] = 0.5 * day.Float64()
		}
	}

	// Each user whole on its slot-0 cloud while capacity lasts, spilling
	// to the nearest cloud with room.
	free := append([]float64(nil), in.Capacity...)
	init := model.NewAlloc(I, J)
	for j := 0; j < J; j++ {
		at := in.Attach[0][j]
		for need := in.Workload[j]; need > 0; {
			best := at
			if free[at] <= 0 {
				best = -1
				for i := 0; i < I; i++ {
					if free[i] > 0 && (best < 0 || in.InterDelay[at][i] < in.InterDelay[at][best]) {
						best = i
					}
				}
			}
			amt := math.Min(need, free[best])
			init.X[best*J+j] += amt
			free[best] -= amt
			need -= amt
		}
	}
	in.Init = &init

	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("churn instance I=%d J=%d T=%d churn=%g seed=%d: %w", I, J, T, churn, seed, err)
	}
	return in, nil
}

// romeDaySeed and romeDaySlots fix one long day of the paper's §V-A Rome
// scenario: the taxis, their demands, the capacities derived from where
// they attach, and every price. The workload seed picks which windows of
// that day are replayed. A fresh scenario per seed redraws the power-law
// demands of a small population, which moves cost_per_slot by ±11% and
// the per-slot iteration count by 2x between seeds; windows of one day
// keep the population and vary the mobility and prices it sees. Every
// window starts cold from the formal model's zero allocation. The
// construction lives in internal/scenario; the pinned digests are what
// keep it from drifting.
const (
	romeDaySeed  = 20140212
	romeDaySlots = 1024
)

// window is slots [t0, t0+n) of the instance with the same pre-horizon
// state; the time-major rows are shared, not copied.
func window(in *model.Instance, t0, n int) *model.Instance {
	w := *in
	w.T = n
	w.OpPrice = in.OpPrice[t0 : t0+n]
	w.Attach = in.Attach[t0 : t0+n]
	w.AccessDelay = in.AccessDelay[t0 : t0+n]
	return &w
}

// floatsDigest is the SHA-256 of the rows' bit patterns.
func floatsDigest(rows [][]float64) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	for _, r := range rows {
		for _, v := range r {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// instanceDigest is the SHA-256 of every field of the instance in
// declaration order, floats by bit pattern.
func instanceDigest(in *model.Instance) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	floats := func(vs []float64) {
		u64(uint64(len(vs)))
		for _, v := range vs {
			u64(math.Float64bits(v))
		}
	}
	rows := func(m [][]float64) {
		u64(uint64(len(m)))
		for _, r := range m {
			floats(r)
		}
	}
	u64(uint64(in.I))
	u64(uint64(in.J))
	u64(uint64(in.T))
	floats(in.Capacity)
	rows(in.InterDelay)
	floats(in.Workload)
	rows(in.OpPrice)
	floats(in.ReconfPrice)
	floats(in.MigOutPrice)
	floats(in.MigInPrice)
	u64(uint64(len(in.Attach)))
	for _, r := range in.Attach {
		u64(uint64(len(r)))
		for _, a := range r {
			u64(uint64(a))
		}
	}
	rows(in.AccessDelay)
	floats([]float64{in.WOp, in.WSq, in.WRc, in.WMg})
	if in.Init != nil {
		floats(in.Init.X)
	}
	return hex.EncodeToString(h.Sum(nil))
}
