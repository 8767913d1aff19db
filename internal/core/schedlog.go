package core

import (
	"slices"

	"edgealloc/internal/model"
)

// This file keeps the run's decisions. P2 reads nothing older than
// x_{t−1}, so OnlineApprox retains no dense schedule beside what it needs
// to solve: slot t's entry in the decision log is the columns the slot
// wrote, with their I values each. A slot that wrote every column — every
// slot of the sharded path, and the all-active slots of the single program
// (slot 0, every slot without Incremental) — is logged as its row-major
// grid itself, which is also the carried decision, so logging it copies
// nothing. On the single program the columns a slot writes are the ones
// repairTouched visits: scatterInto writes the active users' candidate
// pairs and the repair its visited columns, nothing else. Every read of
// the whole horizon — Schedule, ExportState, the certificate, and through
// Decisions the serving layer's schedule, conformance check and snapshots
// — walks the log (walkLog) with two working grids, so no read keeps a
// dense schedule and none copies a grid the log holds whole.

// slotRecord is one slot's entry in the decision log: the columns cols the
// slot wrote, column p's I values at vals[p·I:(p+1)·I]; or, cols nil, the
// whole decision, vals being its row-major grid. A slot that wrote no
// column has a column record, cols empty but not nil.
type slotRecord struct {
	cols []int
	vals []float64
}

// columnRecord copies the listed columns of the I×J grid x into a record,
// a column record even when cols is nil.
func columnRecord(x []float64, nI, nJ int, cols []int) slotRecord {
	r := slotRecord{cols: append(make([]int, 0, len(cols)), cols...), vals: make([]float64, nI*len(cols))}
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

// walkLog calls yield with each logged slot's decision in slot order,
// stopping early when yield returns false: a grid logged whole as it is,
// any other built in one of two working grids as a copy of its
// predecessor with the slot's columns written. The grid yielded for slot
// t−1 stays valid while slot t's is yielded, and the last one yielded
// after the walk returns; a caller that keeps a built grid copies it. No
// grid logged whole may be modified.
func walkLog(in *model.Instance, log []slotRecord, yield func(t int, x model.Alloc) bool) {
	var grids gridPair
	var prev []float64
	for t, r := range log {
		x := model.Alloc{I: in.I, J: in.J, X: r.vals}
		if r.cols == nil {
			grids.moved()
		} else {
			if t == 0 {
				prev = in.InitialAlloc().X
			}
			if grids.stale == nil {
				// A commit lists distinct columns, so stale never outgrows J.
				grids.stale = make([]int, 0, in.J)
			}
			x.X = grids.level(prev, in.J)
			grids.commit(r.cols)
			r.apply(x.X, in.I, in.J)
		}
		if !yield(t, x) {
			return
		}
		prev = x.X
	}
}

// Decisions is a view of the decisions a run had committed when the view
// was taken. A log record is never written once appended — a grid logged
// whole is a buffer the run has given up (gridPair.release) — so the view
// stays valid, and may be walked from another goroutine, while the run
// goes on.
type Decisions struct {
	in  *model.Instance
	log []slotRecord
}

// Decisions returns a view of the slots committed so far. It copies no
// grid; the caller must not run it concurrently with a Step, but may walk
// the view concurrently with later ones.
func (o *OnlineApprox) Decisions() Decisions { return Decisions{o.inst, o.log} }

// Len is the number of committed slots in the view.
func (d Decisions) Len() int { return len(d.log) }

// Walk is a model.Walk over the view's decisions (walkLog): two working
// grids whatever the horizon, none when every slot was logged whole.
func (d Decisions) Walk(yield func(t int, x model.Alloc) bool) {
	walkLog(d.in, d.log, yield)
}

// Schedule returns the decisions of the slots committed so far, one dense
// I×J grid per slot, built by walking the decision log: a grid logged
// whole is handed out as it is, any other is copied out of the walk.
// Nothing is kept, so a caller that never asks pays nothing; the result
// shares the log's grids and must not be modified.
func (o *OnlineApprox) Schedule() model.Schedule {
	s := make(model.Schedule, 0, len(o.log))
	walkLog(o.inst, o.log, func(t int, x model.Alloc) bool {
		if o.log[t].cols != nil {
			x.X = slices.Clone(x.X)
		}
		s = append(s, x)
		return true
	})
	return s
}
