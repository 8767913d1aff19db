package model

import (
	"math"
	"math/rand"
	"testing"
)

// twiceShortColumn searches for a demand λ and a column that Repair has to
// scale twice: short of λ as drawn, and — the scaled entries each rounding
// down — still short of it after the first scaling.
func twiceShortColumn(rng *rand.Rand, nI int) (lambda float64, col []float64) {
	for {
		lambda = 0.5 + 2*rng.Float64()
		col = make([]float64, nI)
		sum := 0.0
		for i := range col {
			col[i] = lambda * rng.Float64() / float64(nI)
			sum += col[i]
		}
		if !(lambda-sum > 0) {
			continue
		}
		f, after := lambda/sum, 0.0
		for _, v := range col {
			after += v * f
		}
		if lambda-after > 0 {
			return lambda, col
		}
	}
}

// TestRepairColumnsMatchesRepair is the bitwise equivalence the touched-
// column commit rests on. Two copies of one evolving decision are repaired
// every slot, one by Repair and one by RepairColumns on the columns written
// that slot plus the ones it returned the slot before; they must never
// differ in a bit. The horizon contains what makes the short list
// necessary — a column Repair scales on two consecutive slots although it
// was written only on the first — along with negative round-off, an all-zero
// column, and columns that serve their demand untouched.
func TestRepairColumnsMatchesRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(2404))
	const nI, nJ, slots = 5, 16, 40
	in := &Instance{I: nI, J: nJ, Workload: make([]float64, nJ)}
	for j := range in.Workload {
		in.Workload[j] = 0.5 + 2*rng.Float64()
	}
	setColumn := func(x Alloc, j int, col []float64) {
		for i, v := range col {
			x.Set(i, j, v)
		}
	}
	full, touched := NewAlloc(nI, nJ), NewAlloc(nI, nJ)
	served := make([]float64, nJ)
	var short []int
	rescaledUnwritten, zeroColumns := 0, 0
	for slot := 0; slot < slots; slot++ {
		written := make([]bool, nJ)
		var cols []int
		write := func(j int, col []float64) {
			setColumn(full, j, col)
			setColumn(touched, j, col)
			if !written[j] {
				written[j] = true
				cols = append(cols, j)
			}
		}
		for j := 0; j < nJ; j++ {
			if slot > 0 && rng.Intn(3) > 0 {
				continue
			}
			col := make([]float64, nI)
			switch rng.Intn(4) {
			case 0: // all zero: served on cloud 0
				zeroColumns++
			case 1: // over-served, with negative round-off
				for i := range col {
					col[i] = in.Workload[j] * rng.Float64()
				}
				col[rng.Intn(nI)] = -1e-12
				col[rng.Intn(nI)] += in.Workload[j]
			default: // marginally under-served
				for i := range col {
					col[i] = in.Workload[j] * (1 - 1e-9*rng.Float64()) / nI
				}
			}
			write(j, col)
		}
		if slot%4 == 1 {
			j := rng.Intn(nJ)
			lambda, col := twiceShortColumn(rng, nI)
			in.Workload[j] = lambda
			write(j, col)
		}
		// The columns RepairColumns visits: this slot's writes, and the
		// ones still short after the last repair that were not rewritten.
		for _, j := range short {
			if !written[j] {
				cols = append(cols, j)
				rescaledUnwritten++
			}
		}
		in.Repair(full, served)
		short = in.RepairColumns(touched, cols, served, short[:0])
		for k := range full.X {
			if math.Float64bits(full.X[k]) != math.Float64bits(touched.X[k]) {
				t.Fatalf("slot %d: x[%d][%d] = %v after RepairColumns, %v after Repair",
					slot, k/nJ, k%nJ, touched.X[k], full.X[k])
			}
		}
	}
	if rescaledUnwritten == 0 || zeroColumns == 0 {
		t.Errorf("%d unwritten columns rescaled, %d all-zero columns: the horizon missed a case",
			rescaledUnwritten, zeroColumns)
	}
}

// TestCloudTotalsSumEachRowInOrder pins CloudTotalsInto, which advances
// four rows abreast, to the plain left-to-right sum of each row, on shapes
// that leave zero to three rows over and on values whose sum depends on the
// order.
func TestCloudTotalsSumEachRowInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2403))
	for nI := 1; nI <= 9; nI++ {
		x := NewAlloc(nI, 1+rng.Intn(30))
		for k := range x.X {
			x.X[k] = rng.NormFloat64() * math.Exp(8*rng.Float64())
		}
		for i, got := range x.CloudTotals() {
			want := 0.0
			for j := 0; j < x.J; j++ {
				want += x.At(i, j)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("I=%d: row %d totals %v, in-order sum %v", nI, i, got, want)
			}
		}
	}
}
