package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call (the program itself is not instrumented).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = no parent
	Iter   string        `json:"iter"`   // the iteration or job the span belongs to
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer started
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced run calls the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(iter, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Iter: iter, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time, index-aligned with spans:
// its duration minus the part of it that its child spans cover.
func selfTimes(spans []span) []time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// selfByName groups the spans' self times by span name.
func selfByName(spans []span) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] = append(out[spans[i].Name], d)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curStart, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

// writeSpans writes the run's spans, with their self times, as JSON
// under dir; the file is named after the workload and seed.
func writeSpans(dir string, o options, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type row struct {
		span
		SelfNS time.Duration `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, d := range selfTimes(spans) {
		rows[i] = row{span: spans[i], SelfNS: d}
	}
	b, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)), b, 0o644)
}
