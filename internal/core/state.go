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
// slot-t solve warm-starts from x*_{·,·,t-1}, the last row of Schedule
// (post-repair) — and the last row of Duals, the per-slot dual record, is
// the dense warm start of the multipliers.
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
	// Schedule holds the committed decisions, one row per solved slot, in
	// the snapshot codec's form: the entries of the row-major I×J grid
	// whose bit pattern is not zero, in ascending index order, so +0.0 is
	// omitted and −0.0 and subnormals are kept.
	Schedule [][]Entry `json:"schedule"`
	// Duals holds one row per solved slot: the multipliers of P2's demand
	// and capacity rows in the [θ (J) | ν (I)] layout, each finite and
	// nonnegative.
	Duals [][]float64 `json:"duals"`
}

// Entry is one stored entry of a decision grid: its row-major index into
// the I×J grid and its value.
type Entry struct {
	Index int     `json:"index"`
	Value float64 `json:"value"`
}

// ExportState deep-copies the algorithm's cross-slot state, each decision
// read off one walk of the decision log as its stored entries. The
// snapshot is independent of the algorithm object: later Steps do not
// mutate it.
func (o *OnlineApprox) ExportState() *WarmState {
	st := &WarmState{Slot: o.slot}
	for _, r := range o.duals {
		st.Duals = append(st.Duals, slices.Clone(r))
	}
	walkLog(o.inst, o.log, func(_ int, x model.Alloc) bool {
		var row []Entry
		for k, v := range x.X {
			if math.Float64bits(v) != 0 {
				row = append(row, Entry{k, v})
			}
		}
		st.Schedule = append(st.Schedule, row)
		return true
	})
	return st
}

// RestoreState loads an exported state into a freshly constructed
// algorithm (same instance shape and options as the exporting run).
// After a successful restore the next Step must be for slot st.Slot; a
// used algorithm object refuses to restore.
//
// Each slot is rebuilt in one of two working grids and logged by the
// columns whose bits differ from its predecessor's, whole where all do;
// the last two are logged as the working grids themselves.
func (o *OnlineApprox) RestoreState(st *WarmState) error {
	in := o.inst
	if in == nil {
		return errors.New("core: RestoreState requires an instance-bound algorithm")
	}
	if o.obj != nil || o.slot != 0 {
		return errors.New("core: RestoreState on a used algorithm object")
	}
	if o.err != nil {
		return o.err
	}
	if err := st.validate(in); err != nil {
		return err
	}
	o.ensureInit(in)
	var grids [2][]float64
	prev, cols := o.prev.X, []int(nil) // slot 0 follows the pre-horizon allocation
	for t, row := range st.Schedule {
		x := grids[t%2]
		if x == nil {
			x = make([]float64, in.I*in.J)
		}
		clear(x)
		for _, e := range row {
			x[e.Index] = e.Value
		}
		if t >= st.Slot-2 {
			// Carried as prev and before: no later slot is built in x.
			o.log = append(o.log, slotRecord{vals: x})
			o.before, o.prev = o.prev, model.Alloc{I: in.I, J: in.J, X: x}
		} else if cols = changedColumns(cols[:0], prev, x, in.J); len(cols) == in.J {
			o.log = append(o.log, slotRecord{vals: slices.Clone(x)})
		} else {
			o.log = append(o.log, columnRecord(x, in.I, in.J, cols))
		}
		grids[t%2], prev = x, x
		o.recordDuals(st.Duals[t])
	}
	if st.Slot > 0 {
		o.obj.carry(o.prev)
		if o.single != nil {
			o.single.restoreShort(in, o.prev, o.userTot)
		}
	}
	o.slot = st.Slot
	return nil
}

// changedColumns appends to cols, ascending, the columns of the I×J grids
// a and b that differ in some bit.
func changedColumns(cols []int, a, b []float64, nJ int) []int {
	for j := 0; j < nJ; j++ {
		for k := j; k < len(a); k += nJ {
			if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				cols = append(cols, j)
				break
			}
		}
	}
	return cols
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
		for k, e := range row {
			if e.Index < 0 || e.Index >= in.I*in.J || k > 0 && e.Index <= row[k-1].Index || !(e.Value >= 0) || math.IsInf(e.Value, 0) {
				return fail("schedule slot %d entry %d (index %d, value %g): want ascending indices in [0, %d), finite nonnegative values",
					t, k, e.Index, e.Value, in.I*in.J)
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
