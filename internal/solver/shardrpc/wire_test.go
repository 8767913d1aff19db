package shardrpc

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// validSpec builds a small structurally consistent BlockSpec: two clouds,
// three local users, four candidate nonzeros.
func validSpec() *BlockSpec {
	return &BlockSpec{
		ID: "b0", Slot: 3, Gen: 1,
		NI: 2, NJ: 3, Eps2: 1e-6,
		RowPtr: []int{0, 2, 4},
		Cols:   []int{0, 1, 1, 2},
		Coef:   []float64{0.5, 1.25, -0.75, 2},
		Prev:   []float64{0, 0.5, 1, 0.25},
		MgFac:  []float64{1, 2, 3, 4},
		Warm:   []float64{0.1, 0.2, 0.3, 0.4},
		Theta:  []float64{0.5, -0.25, 0},
		Demand: []float64{1, 2, 3},
		Solver: SolverOptions{
			MaxOuter: 4, InnerIters: 50, Penalty: 8,
			FeasTol: 1e-7, ObjTol: 1e-9, DualTol: 1e-6,
		},
	}
}

func TestBlockSpecRoundTrip(t *testing.T) {
	s := validSpec()
	// Exercise awkward float64s: JSON must round-trip them exactly.
	s.Coef[0] = 0.1 + 0.2 // 0.30000000000000004
	s.Warm[1] = math.Nextafter(1, 2)
	s.Theta[0] = -math.SmallestNonzeroFloat64
	enc := EncodeBlockSpec(s)
	got, err := DecodeBlockSpec(enc)
	if err != nil {
		t.Fatalf("DecodeBlockSpec: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", got, s)
	}
	if re := EncodeBlockSpec(got); !bytes.Equal(re, enc) {
		t.Fatalf("re-encode not byte-stable:\n got %s\nwant %s", re, enc)
	}
}

func TestRequestResponseRoundTrips(t *testing.T) {
	sreq := &SolveRequest{ID: "b1", Slot: 7, Gen: 2, Rho: 4, Target: []float64{1.5, 0.25}}
	if got, err := DecodeSolveRequest(EncodeSolveRequest(sreq)); err != nil || !reflect.DeepEqual(got, sreq) {
		t.Fatalf("solve request round trip: got %+v err %v", got, err)
	}
	sresp := &SolveResponse{Totals: []float64{0.1 + 0.2, 3}, Outer: 5, Inner: 91}
	if got, err := DecodeSolveResponse(EncodeSolveResponse(sresp)); err != nil || !reflect.DeepEqual(got, sresp) {
		t.Fatalf("solve response round trip: got %+v err %v", got, err)
	}
	stresp := &StateResponse{X: []float64{0, 1, 2, 3}, Theta: []float64{-1, 0.5, 0}}
	if got, err := DecodeStateResponse(EncodeStateResponse(stresp)); err != nil || !reflect.DeepEqual(got, stresp) {
		t.Fatalf("state response round trip: got %+v err %v", got, err)
	}
}

func TestBlockSpecValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(s *BlockSpec)
		wantSub string
	}{
		{"empty ID", func(s *BlockSpec) { s.ID = "" }, "empty block ID"},
		{"NI zero", func(s *BlockSpec) { s.NI = 0 }, "NI=0"},
		{"NJ negative", func(s *BlockSpec) { s.NJ = -1 }, "NJ=-1"},
		{"RowPtr wrong length", func(s *BlockSpec) { s.RowPtr = []int{0, 4} }, "RowPtr len=2, want 3"},
		// The first element, not the whole slice, goes into the error.
		{"RowPtr nonzero start", func(s *BlockSpec) { s.RowPtr = []int{1, 2, 4} }, "RowPtr first=1, want 0"},
		{"RowPtr decreasing", func(s *BlockSpec) { s.RowPtr = []int{0, 3, 2} }, "decreases"},
		{"Cols length mismatch", func(s *BlockSpec) { s.Cols = s.Cols[:3] }, "len(Cols)"},
		{"Cols out of range", func(s *BlockSpec) { s.Cols[2] = 3 }, "out of"},
		{"Cols negative", func(s *BlockSpec) { s.Cols[0] = -1 }, "out of"},
		{"packed length mismatch", func(s *BlockSpec) { s.Coef = s.Coef[:2] }, "packed lengths"},
		{"warm length mismatch", func(s *BlockSpec) { s.Warm = append(s.Warm, 0) }, "packed lengths"},
		{"theta length mismatch", func(s *BlockSpec) { s.Theta = s.Theta[:2] }, "theta"},
		{"demand length mismatch", func(s *BlockSpec) { s.Demand = append(s.Demand, 1) }, "demand"},
		{"eps2 zero", func(s *BlockSpec) { s.Eps2 = 0 }, "eps2"},
		{"eps2 NaN", func(s *BlockSpec) { s.Eps2 = math.NaN() }, "eps2"},
		{"eps2 Inf", func(s *BlockSpec) { s.Eps2 = math.Inf(1) }, "eps2"},
		{"coef NaN", func(s *BlockSpec) { s.Coef[1] = math.NaN() }, "non-finite"},
		{"mgFac Inf", func(s *BlockSpec) { s.MgFac[0] = math.Inf(-1) }, "non-finite"},
		{"theta NaN", func(s *BlockSpec) { s.Theta[0] = math.NaN() }, "non-finite"},
		{"prev negative", func(s *BlockSpec) { s.Prev[0] = -0.5 }, ">= 0"},
		{"warm negative", func(s *BlockSpec) { s.Warm[3] = -1 }, ">= 0"},
		{"demand NaN", func(s *BlockSpec) { s.Demand[1] = math.NaN() }, ">= 0"},
		{"solver NaN", func(s *BlockSpec) { s.Solver.FeasTol = math.NaN() }, "solver options"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a broken spec")
			}
			var e *Error
			if !errors.As(err, &e) || e.Code != CodeBadRequest {
				t.Fatalf("want bad_request *Error, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestBlockSpecValidateAcceptsEmptyBlock(t *testing.T) {
	// A shard with zero local users is legal: NJ=0, all-zero CSR.
	s := &BlockSpec{
		ID: "empty", NI: 2, NJ: 0, Eps2: 0.01,
		RowPtr: []int{0, 0, 0},
		Solver: SolverOptions{Penalty: 8},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate rejected an empty block: %v", err)
	}
	// And it round-trips.
	got, err := DecodeBlockSpec(EncodeBlockSpec(s))
	if err != nil || !reflect.DeepEqual(got, s) {
		t.Fatalf("empty block round trip: got %+v err %v", got, err)
	}
}

func TestSolveRequestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(r *SolveRequest)
	}{
		{"empty ID", func(r *SolveRequest) { r.ID = "" }},
		{"rho zero", func(r *SolveRequest) { r.Rho = 0 }},
		{"rho negative", func(r *SolveRequest) { r.Rho = -1 }},
		{"rho NaN", func(r *SolveRequest) { r.Rho = math.NaN() }},
		{"rho Inf", func(r *SolveRequest) { r.Rho = math.Inf(1) }},
		{"target NaN", func(r *SolveRequest) { r.Target[0] = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &SolveRequest{ID: "b", Slot: 1, Gen: 0, Rho: 2, Target: []float64{1, 2}}
			tc.mutate(r)
			if err := r.Validate(); err == nil {
				t.Fatal("Validate accepted a broken solve request")
			}
		})
	}
}

func TestResponseValidateRejects(t *testing.T) {
	if err := (&SolveResponse{Totals: []float64{math.Inf(1)}}).Validate(); err == nil {
		t.Fatal("SolveResponse.Validate accepted Inf totals")
	}
	if err := (&StateResponse{X: []float64{-1}}).Validate(); err == nil {
		t.Fatal("StateResponse.Validate accepted negative x")
	}
	if err := (&StateResponse{X: []float64{1}, Theta: []float64{math.NaN()}}).Validate(); err == nil {
		t.Fatal("StateResponse.Validate accepted NaN theta")
	}
}

func TestDecodeRejectsMalformedJSON(t *testing.T) {
	for _, data := range [][]byte{[]byte("{"), []byte("[]"), []byte(`{"ni":"two"}`)} {
		if _, err := DecodeBlockSpec(data); err == nil {
			t.Fatalf("DecodeBlockSpec accepted %q", data)
		}
		if _, err := DecodeSolveRequest(data); err == nil {
			t.Fatalf("DecodeSolveRequest accepted %q", data)
		}
	}
}

func TestErrorIsUnknownBlock(t *testing.T) {
	e := &Error{Code: CodeUnknownBlock, Msg: "gone"}
	if !errors.Is(e, ErrUnknownBlock) {
		t.Fatal("errors.Is(unknown_block *Error, ErrUnknownBlock) = false")
	}
	if errors.Is(&Error{Code: CodeBadRequest, Msg: "bad"}, ErrUnknownBlock) {
		t.Fatal("errors.Is(bad_request *Error, ErrUnknownBlock) = true")
	}
}
