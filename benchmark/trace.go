package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// op share Op; Parent is the span that caused this one (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      int    `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced pass: every method is a no-op, so the timed loops are
// written once.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its id.
func (t *tracer) begin(parent int, name, layer string, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent,
		Name: name, Layer: layer, Op: op, StartNs: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a served
// query's queue wait and execution, rebuilt from the response fields).
func (t *tracer) add(parent int, name, layer string, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent,
		Name: name, Layer: layer, Op: op,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// timed runs fn inside a span and returns its wall seconds.
func (t *tracer) timed(parent int, name, layer string, fn func()) float64 {
	id := t.begin(parent, name, layer, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d.Seconds()
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval covered by its children (overlapping children count
// once; a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.StartNs, s.EndNs
		if lo < p.StartNs {
			lo = p.StartNs
		}
		if hi > p.EndNs {
			hi = p.EndNs
		}
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], [2]int64{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, edge int64
		edge = s.StartNs
		for _, c := range iv {
			if c[1] <= edge {
				continue
			}
			if c[0] > edge {
				edge = c[0]
			}
			covered += c[1] - edge
			edge = c[1]
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// selfByName sums self time per "layer/name", for the report.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer+"/"+s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}

// writeSpans writes spans as one JSON array.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
