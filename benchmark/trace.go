package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one benchmark-side call into a layer's public function. Times
// are nanoseconds since the tracer's epoch; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N and Aux are optional counts attached to the call (candidates in
	// a residual; selections and recomputations of a solve).
	N   int64 `json:"n,omitempty"`
	Aux int64 `json:"aux,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer (the
// untraced run) records nothing and returns span ID 0.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, parent int64, start, end time.Time, n int64) int64 {
	return t.recordAux(name, parent, start, end, n, 0)
}

func (t *tracer) recordAux(name string, parent int64, start, end time.Time, n, aux int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), N: n, Aux: aux})
	t.mu.Unlock()
	return id
}

// reserve allocates a span ID before the call finishes, so a callee
// (the HTTP server) can name it as parent; fill completes it.
func (t *tracer) reserve(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name})
	t.mu.Unlock()
	return id
}

func (t *tracer) fill(id int64, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	s := &t.spans[id-1]
	s.Start, s.End = start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// all returns a copy of every span, in recording order.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName returns the spans with the given name, in recording order.
func (t *tracer) byName(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the named spans in unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	ss := t.byName(name)
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

// counts returns the N and Aux attributes of the named spans.
func (t *tracer) counts(name string) (n, aux []float64) {
	ss := t.byName(name)
	n, aux = make([]float64, len(ss)), make([]float64, len(ss))
	for i, s := range ss {
		n[i], aux[i] = float64(s.N), float64(s.Aux)
	}
	return n, aux
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
