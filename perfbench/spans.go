package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the call:
// name, start and end (ns since the run began), the span that caused it,
// and the rep it belongs to (-1 for run-level spans). Counts holds what the
// registry, the atomic audit and the critical-path analysis read at the
// span's end.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Rep    int                `json:"rep"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps the run's spans in memory until the run writes them out.
// Span ids start at 1; parent 0 means a root span.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, rep, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Rep: rep, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

func (t *tracer) setCounts(id int, c map[string]float64) { t.spans[id-1].Counts = c }

// selfTimes returns, per span name, each span's self time: its duration
// minus the part of its interval that its children cover. Only spans whose
// rep satisfies keep are included.
func (t *tracer) selfTimes(keep func(rep int) bool) map[string][]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		if !keep(s.Rep) {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered))
	}
	return out
}

// write stores the run record and every span as one JSON document.
func (t *tracer) write(path string, rec runRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	b, err := json.Marshal(struct {
		Run   runRecord `json:"run"`
		Spans []span    `json:"spans"`
	}{rec, t.spans})
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
