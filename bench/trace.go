package main

import "time"

// span is one timed interval at a layer boundary, recorded from outside
// the layer. Spans of one slot advance share Episode and Slot; Parent is
// the ID of the span that caused this one (0 for a root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Episode int     `json:"episode"`
	Slot    int     `json:"slot"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// SelfUs is the span's duration minus the part of it its child spans
	// cover; the parent fills it in before writing the file.
	SelfUs float64 `json:"self_us"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer records
// nothing, which is how the untraced passes run.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1024)} }

// add records a span whose ends the caller timed itself and returns its
// ID; the timed loops use it so traced and untraced passes read the clock
// at the same points.
func (tr *tracer) add(name string, parent, episode, slot int, start, end time.Time) int {
	if tr == nil {
		return 0
	}
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{
		ID: id, Parent: parent, Name: name, Episode: episode, Slot: slot,
		StartUs: float64(start.Sub(tr.t0)) / 1e3,
		EndUs:   float64(end.Sub(tr.t0)) / 1e3,
	})
	return id
}

// begin opens a span now; end closes it. Slot -1 marks work that belongs
// to no single slot.
func (tr *tracer) begin(name string, parent, episode int) int {
	now := time.Now()
	return tr.add(name, parent, episode, -1, now, now)
}

func (tr *tracer) end(id int) {
	if tr != nil {
		tr.spans[id-1].EndUs = float64(time.Since(tr.t0)) / 1e3
	}
}

// timed runs f as a slotless span under parent and returns how long it
// took in milliseconds.
func (tr *tracer) timed(name string, parent, episode int, f func()) float64 {
	s := time.Now()
	f()
	e := time.Now()
	tr.add(name, parent, episode, -1, s, e)
	return ms(e.Sub(s))
}

// reported records a child whose duration the layer reported itself (the
// solver's own Seconds). Only the duration is measured; the position is
// nominal: flush with the end of its parent, and clipped to it.
func (tr *tracer) reported(name string, parent int, dur time.Duration) {
	if tr == nil {
		return
	}
	p := tr.spans[parent-1]
	start := p.EndUs - float64(dur)/1e3
	if start < p.StartUs {
		start = p.StartUs
	}
	tr.spans = append(tr.spans, span{
		ID: len(tr.spans) + 1, Parent: parent, Name: name,
		Episode: p.Episode, Slot: p.Slot, StartUs: start, EndUs: p.EndUs,
	})
}

// fillSelf sets every span's self time: its duration minus the summed
// durations of its direct children. Children recorded here never overlap
// one another, so the sum is the covered part.
func fillSelf(spans []span) {
	for k := range spans {
		spans[k].SelfUs = spans[k].EndUs - spans[k].StartUs
	}
	for _, s := range spans {
		if s.Parent > 0 {
			spans[s.Parent-1].SelfUs -= s.EndUs - s.StartUs
		}
	}
}
