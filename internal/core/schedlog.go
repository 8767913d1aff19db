package core

import (
	"slices"

	"edgealloc/internal/model"
)

// This file keeps the run's decisions. P2 reads nothing older than
// x_{t−1}, so OnlineApprox retains no dense schedule beside what it needs
// to solve: slot t's entry in the decision log is the columns the slot
// wrote, with their I values each, and the dense schedule is built from the
// log only when someone asks for it (Schedule). A slot that wrote every
// column — every slot of the dense paths, and the all-active slots of the
// ragged ones (slot 0, every slot without Incremental) — is logged as its
// row-major grid itself, which is also the carried decision and the grid
// Schedule hands out, so logging it copies nothing. On the ragged paths the columns a slot writes are
// the ones repairTouched visits: scatterInto writes the active users'
// candidate pairs and the repair its visited columns, nothing else.

// slotRecord is one slot's entry in the decision log: the columns cols the
// slot wrote, column p's I values at vals[p·I:(p+1)·I]; or, cols nil, the
// whole decision, vals being its row-major grid.
type slotRecord struct {
	cols []int
	vals []float64
}

// columnRecord copies the listed columns of the I×J grid x into a record.
func columnRecord(x []float64, nI, nJ int, cols []int) slotRecord {
	r := slotRecord{cols: slices.Clone(cols), vals: make([]float64, nI*len(cols))}
	for p, j := range cols {
		for i := 0; i < nI; i++ {
			r.vals[p*nI+i] = x[i*nJ+j]
		}
	}
	return r
}

// apply writes a column record's values into x, its predecessor's grid.
func (r slotRecord) apply(x []float64, nI, nJ int) {
	for p, j := range r.cols {
		for i, v := range r.vals[p*nI : (p+1)*nI] {
			x[i*nJ+j] = v
		}
	}
}

// gridPair is a double buffer over a sequence of I×J grids each of which
// differs from its predecessor on a few columns. The next grid is built in
// buf[next] while the current one — in the other buffer, or in memory the
// pair does not own — stays readable, and bringing buf[next] level with it
// first costs only the columns where the two may differ.
type gridPair struct {
	buf  [2][]float64
	next int  // the buffer the next grid is built in
	held bool // whether the other buffer holds the current grid
	// stale lists the columns of buf[next] that may differ from the
	// current grid, or all says that every column may.
	stale []int
	all   bool
}

// level makes buf[next] a copy of the current grid x and returns it,
// allocating the buffer on first use.
func (g *gridPair) level(x []float64, nJ int) []float64 {
	b := g.buf[g.next]
	if b == nil {
		b = make([]float64, len(x))
		g.buf[g.next], g.all = b, true
	}
	if g.all {
		copy(b, x)
	} else {
		for _, j := range g.stale {
			for k := j; k < len(b); k += nJ {
				b[k] = x[k]
			}
		}
	}
	g.stale, g.all = g.stale[:0], false
	return b
}

// dirty records that buf[next] was written on cols since it was levelled
// by a build that never became current.
func (g *gridPair) dirty(cols []int) { g.stale = append(g.stale, cols...) }

// commit makes the grid built in buf[next] current. It differs from the
// grid it replaces on cols alone, so buf[next] becomes the other buffer,
// stale on cols if that one held the replaced grid and everywhere if not.
func (g *gridPair) commit(cols []int) {
	g.stale = append(g.stale[:0], cols...)
	g.all = !g.held
	g.held, g.next = true, 1-g.next
}

// moved records that the current grid lives outside the pair now.
func (g *gridPair) moved() { g.held, g.all = false, true }

// release hands over buf[next], which holds the current grid, for good,
// and replaces it with a fresh buffer.
func (g *gridPair) release() []float64 {
	b := g.buf[g.next]
	g.buf[g.next] = make([]float64, len(b))
	g.moved()
	return b
}

// Schedule returns the decisions of the slots committed so far, one dense
// I×J grid per slot, building them from the decision log on demand: from
// the last slot an earlier call built, a grid logged whole as it is, any
// other as a copy of its predecessor with the slot's columns written. The
// grids are kept, so a caller that asks once per slot pays one grid per
// slot and one that never asks pays none. The result is shared with later
// calls and must not be modified.
func (o *OnlineApprox) Schedule() model.Schedule {
	in := o.inst
	for t := len(o.sched); t < len(o.log); t++ {
		r := o.log[t]
		x := model.Alloc{I: in.I, J: in.J, X: r.vals}
		if r.cols != nil {
			if t == 0 {
				x = in.InitialAlloc()
			} else {
				x = o.sched[t-1].Clone()
			}
			r.apply(x.X, in.I, in.J)
		}
		o.sched = append(o.sched, x)
	}
	return o.sched
}
