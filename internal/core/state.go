package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"edgealloc/internal/model"
)

// WarmState is the serializable cross-slot state of an OnlineApprox run:
// everything a fresh algorithm object needs to resume the online
// algorithm at the next unsolved slot as if it had solved the previous
// ones itself. The committed decisions double as the warm iterate — the
// slot-t solve warm-starts from x*_{·,·,t-1}, which is exactly
// Schedule[t-1] (post-repair) — and the last row of Duals, the per-slot
// dual record, is the dense warm start of the multipliers.
//
// Path-internal warm state is deliberately not captured: the candidate
// builder's sets and the incremental tier's short columns are rebuilt from
// the carried decision, so every single-program tier resumes bit for bit.
// The sharded coordinator's per-block demand duals and consensus prices
// are not rebuilt — its blocks restart from zero — so a restored sharded
// run matches the uninterrupted one to the solver tolerance only.
type WarmState struct {
	// Slot is the next unsolved slot; len(Schedule) committed decisions
	// precede it.
	Slot int `json:"slot"`
	// Schedule holds the committed decisions, one dense row-major I×J
	// matrix per solved slot.
	Schedule [][]float64 `json:"schedule"`
	// Duals holds one row per solved slot: the multipliers of P2's demand
	// and capacity rows in the [θ (J) | ν (I)] layout, each finite and
	// nonnegative.
	Duals [][]float64 `json:"duals"`
}

// ExportState deep-copies the algorithm's cross-slot state, the schedule
// as Schedule builds it. The snapshot is independent of the algorithm
// object: later Steps do not mutate it.
func (o *OnlineApprox) ExportState() *WarmState {
	st := &WarmState{Slot: o.slot, Duals: copyRows(o.duals)}
	st.Schedule = make([][]float64, 0, len(o.log))
	walkLog(o.inst, o.log, func(_ int, x model.Alloc) bool {
		st.Schedule = append(st.Schedule, slices.Clone(x.X))
		return true
	})
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
	if o.opts.Shards > 0 && o.opts.Incremental {
		return errIncrementalShards
	}
	if err := st.validate(in); err != nil {
		return err
	}
	o.ensureInit(in)
	for t, row := range st.Schedule {
		o.log = append(o.log, slotRecord{vals: append([]float64(nil), row...)})
		o.recordDuals(st.Duals[t])
	}
	if st.Slot > 1 {
		o.before = model.Alloc{I: in.I, J: in.J, X: o.log[st.Slot-2].vals}
	}
	if st.Slot > 0 {
		o.prev = model.Alloc{I: in.I, J: in.J, X: o.log[st.Slot-1].vals}
		o.obj.carry(o.prev)
		if o.single != nil {
			o.single.restoreShort(in, o.prev, o.userTot)
		}
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
	if len(st.Duals) != st.Slot {
		return fail("%d dual rows, want %d", len(st.Duals), st.Slot)
	}
	for t, r := range st.Duals {
		if len(r) != in.J+in.I {
			return fail("duals[%d] has %d entries, want %d", t, len(r), in.J+in.I)
		}
		for k, v := range r {
			if !(v >= 0) || math.IsInf(v, 0) {
				return fail("duals[%d][%d] = %g must be finite and nonnegative", t, k, v)
			}
		}
	}
	return nil
}
