package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Start and End are
// nanoseconds since the tracer was created; N is an optional count the
// wrapper attaches (samples committed, series returned, bytes rendered).
type Span struct {
	ID, Parent int32
	Name       string
	Start, End int64
	N, M       int64
}

// Tracer keeps spans in memory for the length of a run. A nil *Tracer is
// the untraced mode: every method is a no-op costing one branch, so the
// wrappers can stay in place for the end-to-end run.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span under parent (0 for a root) and returns its ID.
func (t *Tracer) Start(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// End closes the span, attaching counts n and m.
func (t *Tracer) End(id int32, n, m int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	sp := &t.spans[id-1]
	sp.End, sp.N, sp.M = now, n, m
	t.mu.Unlock()
}

// Reset drops every span recorded so far; a run calls it once its set-up
// is done, so the trace covers the measured loop only. No span may be open.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// Spans returns the closed spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteTSV writes every span as "id parent name start_ns end_ns n m".
func (t *Tracer) WriteTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\tn\tm")
	for _, s := range t.Spans() {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", s.ID, s.Parent, s.Name, s.Start, s.End, s.N, s.M)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how many ns of parent's interval the children cover.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// spanCostNs measures what recording one span costs on this machine: the
// mean of a Start/End pair on a throwaway tracer.
func spanCostNs() float64 {
	const n = 200_000
	tr := NewTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.End(tr.Start("x", 0), 0, 0)
	}
	return float64(time.Since(t0)) / n
}
