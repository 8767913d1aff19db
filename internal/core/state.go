package core

import (
	"errors"
	"fmt"
	"math"

	"edgealloc/internal/model"
)

// WarmState is the serializable cross-slot state of an OnlineApprox run:
// everything a fresh algorithm object needs to resume the online
// algorithm at the next unsolved slot as if it had solved the previous
// ones itself. The committed decisions double as the warm iterate — the
// slot-t solve warm-starts from x*_{·,·,t-1}, which is exactly
// Schedule[t-1] (post-repair) — and Duals carries the last accepted ALM
// multipliers in the full [θ | ρ | ν] layout for the dense warm start.
// The per-slot dual records (Thetas, Rhos, Nus) preserve the dual
// certificate and the conformance oracle across a restore.
//
// Path-internal warm state (the candidate builder's sets, the sharded
// coordinator's per-block duals) is deliberately not captured: each path
// rebuilds it from the carried decision. The incremental tier trusts
// neither the decision nor Duals of a slot it did not commit itself: its
// delta detector treats the first post-restore slot as having no
// committed predecessor, so it re-solves every user from zero multipliers
// — a full, certified solve — before resuming delta-driven slots. Restored runs therefore match uninterrupted runs to the solver
// tolerance (pinned to 1e-8 by the serve-layer tests), not bitwise.
type WarmState struct {
	// Slot is the next unsolved slot; len(Schedule) committed decisions
	// precede it.
	Slot int `json:"slot"`
	// Schedule holds the committed decisions, one dense row-major I×J
	// matrix per solved slot.
	Schedule [][]float64 `json:"schedule"`
	// Duals is the warm-start multiplier vector of the last successful
	// slot in the full [θ (J) | ρ (I) | ν (I)] layout, or nil before the
	// first slot.
	Duals []float64 `json:"duals,omitempty"`
	// Thetas, Rhos, and Nus are the per-slot optimal multipliers of P2's
	// demand, complement-capacity, and explicit capacity rows (one row per
	// solved slot; lengths J, I, I).
	Thetas [][]float64 `json:"thetas"`
	Rhos   [][]float64 `json:"rhos"`
	Nus    [][]float64 `json:"nus"`
}

// ExportState deep-copies the algorithm's cross-slot state. The snapshot
// is independent of the algorithm object: later Steps do not mutate it.
func (o *OnlineApprox) ExportState() *WarmState {
	st := &WarmState{Slot: o.slot}
	st.Schedule = make([][]float64, len(o.schedule))
	for t, x := range o.schedule {
		st.Schedule[t] = append([]float64(nil), x.X...)
	}
	if o.warmDuals != nil {
		st.Duals = append([]float64(nil), o.warmDuals...)
	}
	st.Thetas = copyRows(o.thetas)
	st.Rhos = copyRows(o.rhos)
	st.Nus = copyRows(o.nus)
	return st
}

func copyRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for k, r := range rows {
		out[k] = append([]float64(nil), r...)
	}
	return out
}

// RestoreState loads an exported state into a freshly constructed
// algorithm (same instance shape and options as the exporting run).
// After a successful restore the next Step must be for slot st.Slot; a
// used algorithm object refuses to restore.
func (o *OnlineApprox) RestoreState(st *WarmState) error {
	in := o.inst
	if in == nil {
		return errors.New("core: RestoreState requires an instance-bound algorithm")
	}
	if o.obj != nil || o.slot != 0 {
		return errors.New("core: RestoreState on a used algorithm object")
	}
	if err := st.validate(in); err != nil {
		return err
	}
	o.ensureInit(in)
	nI, nJ := in.I, in.J
	for t, row := range st.Schedule {
		x := model.Alloc{I: nI, J: nJ, X: append([]float64(nil), row...)}
		o.schedule = append(o.schedule, x)
		theta := o.thetaBuf[t*nJ : (t+1)*nJ]
		copy(theta, st.Thetas[t])
		rho := o.rhoBuf[t*nI : (t+1)*nI]
		copy(rho, st.Rhos[t])
		nu := o.nuBuf[t*nI : (t+1)*nI]
		copy(nu, st.Nus[t])
		o.thetas = append(o.thetas, theta)
		o.rhos = append(o.rhos, rho)
		o.nus = append(o.nus, nu)
	}
	if st.Slot > 0 {
		copy(o.prevBuf, st.Schedule[st.Slot-1])
	}
	if st.Duals != nil {
		o.dualsBuf = append([]float64(nil), st.Duals...)
		o.warmDuals = o.dualsBuf
	}
	o.slot = st.Slot
	return nil
}

// validate checks the state's shape and values against the instance, so
// a corrupted or mismatched snapshot fails the restore instead of
// poisoning the warm solver state.
func (st *WarmState) validate(in *model.Instance) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("core: invalid warm state: %s", fmt.Sprintf(format, args...))
	}
	if st.Slot < 0 || st.Slot > in.T {
		return fail("slot %d outside [0, %d]", st.Slot, in.T)
	}
	if len(st.Schedule) != st.Slot {
		return fail("%d committed slots, want %d", len(st.Schedule), st.Slot)
	}
	for t, row := range st.Schedule {
		if len(row) != in.I*in.J {
			return fail("schedule slot %d has %d entries, want %d", t, len(row), in.I*in.J)
		}
		for k, v := range row {
			if !(v >= 0) || math.IsInf(v, 0) {
				return fail("schedule slot %d entry %d = %g must be finite and nonnegative", t, k, v)
			}
		}
	}
	if st.Duals != nil && len(st.Duals) != in.J+2*in.I {
		return fail("%d warm duals, want %d", len(st.Duals), in.J+2*in.I)
	}
	for k, v := range st.Duals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fail("warm dual %d = %g not finite", k, v)
		}
	}
	for name, rows := range map[string][][]float64{"thetas": st.Thetas, "rhos": st.Rhos, "nus": st.Nus} {
		want := in.I
		if name == "thetas" {
			want = in.J
		}
		if len(rows) != st.Slot {
			return fail("%d %s rows, want %d", len(rows), name, st.Slot)
		}
		for t, r := range rows {
			if len(r) != want {
				return fail("%s[%d] has %d entries, want %d", name, t, len(r), want)
			}
			for k, v := range r {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fail("%s[%d][%d] = %g not finite", name, t, k, v)
				}
			}
		}
	}
	return nil
}
