package model

import (
	"math/rand"
	"testing"
)

func TestNearestCloudsSelectsByDelayWithIndexTies(t *testing.T) {
	delay := [][]float64{
		{0, 3, 1, 2},
		{3, 0, 1, 1},
		{1, 1, 0, 5},
		{2, 1, 5, 0},
	}
	near := NearestClouds(delay, 2)
	want := [][]int{
		{0, 2}, // own (0) then delay-1 cloud 2
		{1, 2}, // own (1); clouds 2 and 3 tie at delay 1 — lower index wins
		{0, 2}, // own (2); clouds 0 and 1 tie at delay 1 — lower index wins
		{1, 3}, // own (3) then delay-1 cloud 1
	}
	for a := range want {
		if len(near[a]) != len(want[a]) {
			t.Fatalf("row %d: got %v, want %v", a, near[a], want[a])
		}
		for k := range want[a] {
			if near[a][k] != want[a][k] {
				t.Errorf("row %d: got %v, want %v", a, near[a], want[a])
				break
			}
		}
	}
}

func TestNearestCloudsClampsK(t *testing.T) {
	delay := [][]float64{{0, 1}, {1, 0}}
	for _, k := range []int{0, 1, 5} {
		near := NearestClouds(delay, k)
		wantLen := k
		if wantLen < 1 {
			wantLen = 1
		}
		if wantLen > 2 {
			wantLen = 2
		}
		for a := range near {
			if len(near[a]) != wantLen {
				t.Errorf("k=%d row %d: %d clouds, want %d", k, a, len(near[a]), wantLen)
			}
		}
	}
}

// TestNearestCloudsEdgeCases tables the degenerate shapes of the
// candidate seed: k at or past both ends of [1, I], duplicate-delay
// geometries, and the self-inclusion invariant when zero-delay ties with
// lower indices would otherwise crowd a cloud out of its own row.
func TestNearestCloudsEdgeCases(t *testing.T) {
	tests := []struct {
		name  string
		delay [][]float64
		k     int
		want  [][]int
	}{
		{
			name:  "k beyond I returns every cloud",
			delay: [][]float64{{0, 2}, {2, 0}},
			k:     7,
			want:  [][]int{{0, 1}, {0, 1}},
		},
		{
			name:  "k zero clamps to one",
			delay: [][]float64{{0, 2, 3}, {2, 0, 1}, {3, 1, 0}},
			k:     0,
			want:  [][]int{{0}, {1}, {2}},
		},
		{
			name:  "k negative clamps to one",
			delay: [][]float64{{0, 1}, {1, 0}},
			k:     -4,
			want:  [][]int{{0}, {1}},
		},
		{
			name: "zero-delay ties keep self in the row",
			// Co-located clouds: every pairwise delay is zero, so row 2's
			// top-1 by (delay, index) would be cloud 0 — the invariant
			// displaces it for 2 itself.
			delay: [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}},
			k:     1,
			want:  [][]int{{0}, {1}, {2}},
		},
		{
			name: "partial zero tie displaces farthest pick only",
			// Row 2 ties with clouds 0 and 1 at zero; with k=2 the seed
			// keeps the lower-index tie 0 and yields the second slot to 2.
			delay: [][]float64{{0, 5, 0}, {5, 0, 0}, {0, 0, 0}},
			k:     2,
			want:  [][]int{{0, 2}, {1, 2}, {0, 2}},
		},
		{
			name:  "single cloud",
			delay: [][]float64{{0}},
			k:     3,
			want:  [][]int{{0}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NearestClouds(tt.delay, tt.k)
			for a := range tt.want {
				if len(got[a]) != len(tt.want[a]) {
					t.Fatalf("row %d: got %v, want %v", a, got[a], tt.want[a])
				}
				hasSelf := false
				for k := range tt.want[a] {
					if got[a][k] != tt.want[a][k] {
						t.Errorf("row %d: got %v, want %v", a, got[a], tt.want[a])
						break
					}
					if got[a][k] == a {
						hasSelf = true
					}
				}
				if !hasSelf {
					t.Errorf("row %d = %v does not contain cloud %d itself", a, got[a], a)
				}
			}
		})
	}
}

// TestCandidateBuilderCSRMatchesBitmap cross-checks the CSR emission
// against the membership bitmap on random add patterns, including reuse
// of the destination across Reset cycles and incremental adds between
// Build calls (the expansion-loop usage).
func TestCandidateBuilderCSRMatchesBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const I, J = 6, 11
	b := NewCandidateBuilder(I, J)
	var cs CandidateSet
	for trial := 0; trial < 50; trial++ {
		b.Reset()
		ref := make(map[[2]int]bool)
		add := func(i, j int) {
			b.Add(i, j)
			ref[[2]int{i, j}] = true
		}
		for n := rng.Intn(25); n > 0; n-- {
			add(rng.Intn(I), rng.Intn(J))
		}
		check := func() {
			t.Helper()
			b.Build(&cs)
			if cs.NNZ() != len(ref) {
				t.Fatalf("trial %d: NNZ %d, want %d", trial, cs.NNZ(), len(ref))
			}
			if cs.RowPtr[0] != 0 || cs.RowPtr[I] != cs.NNZ() {
				t.Fatalf("trial %d: RowPtr ends %d..%d, want 0..%d",
					trial, cs.RowPtr[0], cs.RowPtr[I], cs.NNZ())
			}
			for i := 0; i < I; i++ {
				cols := cs.Cols[cs.RowPtr[i]:cs.RowPtr[i+1]]
				for k, j := range cols {
					if k > 0 && cols[k-1] >= j {
						t.Fatalf("trial %d: row %d columns not strictly ascending: %v", trial, i, cols)
					}
					if !ref[[2]int{i, j}] {
						t.Fatalf("trial %d: CSR has (%d,%d) not in reference", trial, i, j)
					}
					if !b.Contains(i, j) {
						t.Fatalf("trial %d: Contains(%d,%d) false after Add", trial, i, j)
					}
				}
			}
		}
		check()
		// Incremental adds after a Build must accumulate (expansion loop).
		for n := rng.Intn(10); n > 0; n-- {
			add(rng.Intn(I), rng.Intn(J))
		}
		check()
	}
}

func TestCandidateBuilderAddSupportAndUserSet(t *testing.T) {
	const I, J = 3, 4
	b := NewCandidateBuilder(I, J)
	b.Add(1, 2)
	b.Add(2, 0)
	b.AddUserSet(3, []int{0, 2})
	var cs CandidateSet
	b.Build(&cs)
	want := map[[2]int]bool{{1, 2}: true, {2, 0}: true, {0, 3}: true, {2, 3}: true}
	if cs.NNZ() != len(want) {
		t.Fatalf("NNZ %d, want %d", cs.NNZ(), len(want))
	}
	for i := 0; i < I; i++ {
		for _, j := range cs.Cols[cs.RowPtr[i]:cs.RowPtr[i+1]] {
			if !want[[2]int{i, j}] {
				t.Errorf("unexpected candidate (%d,%d)", i, j)
			}
		}
	}
}

// buildFromBitmap is the builder's reference emission: a scan of the whole
// I×J membership grid in row-major order.
func buildFromBitmap(member [][]bool) (rowPtr, cols []int) {
	rowPtr = []int{0}
	for _, row := range member {
		for j, m := range row {
			if m {
				cols = append(cols, j)
			}
		}
		rowPtr = append(rowPtr, len(cols))
	}
	return rowPtr, cols
}

// TestCandidateBuilderListedUsersMatchBitmapScan holds the builder, which
// clears and scans only the columns of the users it has listed, to a
// full-grid bitmap kept beside it, across Reset / Add / Build / Add / Build
// cycles the way a slot drives it: a batch of seeded users in ascending
// order, then re-admissions that name users out of order — below, between
// and among the ones already listed — through both Add and AddUserSet.
// Contains must agree with the bitmap on every pair, including the pairs of
// a previous cycle that Reset has to have cleared.
func TestCandidateBuilderListedUsersMatchBitmapScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2405))
	const I, J = 7, 23
	b := NewCandidateBuilder(I, J)
	var cs CandidateSet
	member := make([][]bool, I)
	for cycle := 0; cycle < 60; cycle++ {
		b.Reset()
		for i := range member {
			member[i] = make([]bool, J)
		}
		check := func(stage string) {
			t.Helper()
			b.Build(&cs)
			rowPtr, cols := buildFromBitmap(member)
			if len(cs.RowPtr) != len(rowPtr) || len(cs.Cols) != len(cols) {
				t.Fatalf("cycle %d %s: %d row pointers and %d columns, bitmap scan has %d and %d",
					cycle, stage, len(cs.RowPtr), len(cs.Cols), len(rowPtr), len(cols))
			}
			for k := range rowPtr {
				if cs.RowPtr[k] != rowPtr[k] {
					t.Fatalf("cycle %d %s: RowPtr = %v, bitmap scan has %v", cycle, stage, cs.RowPtr, rowPtr)
				}
			}
			for k := range cols {
				if cs.Cols[k] != cols[k] {
					t.Fatalf("cycle %d %s: Cols = %v, bitmap scan has %v", cycle, stage, cs.Cols, cols)
				}
			}
			for i := 0; i < I; i++ {
				for j := 0; j < J; j++ {
					if b.Contains(i, j) != member[i][j] {
						t.Fatalf("cycle %d %s: Contains(%d,%d) = %v, bitmap has %v",
							cycle, stage, i, j, b.Contains(i, j), member[i][j])
					}
				}
			}
		}
		check("after Reset")
		// Seeding: ascending users, a nearest-cloud set and some support.
		for j := rng.Intn(4); j < J; j += 1 + rng.Intn(6) {
			set := []int{rng.Intn(I), rng.Intn(I)}
			b.AddUserSet(j, set)
			for _, i := range set {
				member[i][j] = true
			}
			if rng.Intn(2) == 0 {
				i := rng.Intn(I)
				b.Add(i, j)
				member[i][j] = true
			}
		}
		check("seeded")
		// Expansion and re-admission rounds, in no order.
		for round := rng.Intn(3); round >= 0; round-- {
			for n := rng.Intn(8); n > 0; n-- {
				i, j := rng.Intn(I), rng.Intn(J)
				if rng.Intn(3) == 0 {
					b.AddUserSet(j, []int{i})
				} else {
					b.Add(i, j)
				}
				member[i][j] = true
			}
			check("expanded")
		}
	}
}
