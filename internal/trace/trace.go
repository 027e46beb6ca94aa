// Package trace records labeled time spans during a simulation run, used to
// build latency decompositions such as the paper's Figure 8 (kernel launch /
// execution / teardown / put / wait segments on initiator and target).
package trace

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Span is a completed labeled interval on some actor's timeline.
type Span struct {
	Actor string   // e.g. "initiator", "target"
	Label string   // e.g. "Kernel Launch"
	Start sim.Time // inclusive
	End   sim.Time // exclusive
}

// Duration returns End - Start.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Tracer accumulates spans and point marks. The zero value is unusable;
// create one with New. A nil *Tracer is valid and discards everything, so
// models can trace unconditionally.
type Tracer struct {
	eng   *sim.Engine
	spans []Span
	open  map[string]openSpan // key: actor + "\x00" + label
	marks []Mark
}

type openSpan struct {
	actor, label string
	start        sim.Time
}

// Mark is a labeled instant.
type Mark struct {
	Actor string
	Label string
	At    sim.Time
}

// New creates a Tracer bound to the engine's clock.
func New(eng *sim.Engine) *Tracer {
	return &Tracer{eng: eng, open: make(map[string]openSpan)}
}

func key(actor, label string) string { return actor + "\x00" + label }

// Begin opens a span. Opening a span that is already open panics — that is
// always a model bookkeeping bug.
func (t *Tracer) Begin(actor, label string) {
	if t == nil {
		return
	}
	k := key(actor, label)
	if _, dup := t.open[k]; dup {
		panic(fmt.Sprintf("trace: span %q/%q already open", actor, label))
	}
	t.open[k] = openSpan{actor, label, t.eng.Now()}
}

// End closes a previously opened span and records it.
func (t *Tracer) End(actor, label string) {
	if t == nil {
		return
	}
	k := key(actor, label)
	o, ok := t.open[k]
	if !ok {
		panic(fmt.Sprintf("trace: span %q/%q not open", actor, label))
	}
	delete(t.open, k)
	t.spans = append(t.spans, Span{Actor: o.actor, Label: o.label, Start: o.start, End: t.eng.Now()})
}

// Record adds a complete span directly.
func (t *Tracer) Record(actor, label string, start, end sim.Time) {
	if t == nil {
		return
	}
	if end < start {
		panic("trace: span ends before it starts")
	}
	t.spans = append(t.spans, Span{Actor: actor, Label: label, Start: start, End: end})
}

// MarkNow records a labeled instant at the current time.
func (t *Tracer) MarkNow(actor, label string) {
	if t == nil {
		return
	}
	t.marks = append(t.marks, Mark{Actor: actor, Label: label, At: t.eng.Now()})
}

// Spans returns all completed spans in record order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Marks returns all point marks in record order.
func (t *Tracer) Marks() []Mark {
	if t == nil {
		return nil
	}
	return t.marks
}

// OpenCount reports how many spans are currently open (should be zero at
// the end of a well-formed run).
func (t *Tracer) OpenCount() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}

// ByActor returns the spans of one actor sorted by start time.
func (t *Tracer) ByActor(actor string) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Actor == actor {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// TotalByLabel sums span durations per (actor, label).
func (t *Tracer) TotalByLabel() map[string]map[string]sim.Time {
	out := map[string]map[string]sim.Time{}
	for _, s := range t.Spans() {
		m := out[s.Actor]
		if m == nil {
			m = map[string]sim.Time{}
			out[s.Actor] = m
		}
		m[s.Label] += s.Duration()
	}
	return out
}

// FirstMark returns the earliest mark with the given actor and label.
func (t *Tracer) FirstMark(actor, label string) (Mark, bool) {
	for _, m := range t.Marks() {
		if m.Actor == actor && m.Label == label {
			return m, true
		}
	}
	return Mark{}, false
}
