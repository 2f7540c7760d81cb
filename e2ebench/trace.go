package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one recorded call into a layer: its name, its interval
// relative to the tracer's origin, and the span that caused it (0 for
// a root). Spans of one operation share Op.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Op     string        `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory around the benchmark's calls into
// each layer; write dumps them when the run ends. Only the
// coordinating goroutine records, so no locking is needed.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(op, name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: time.Since(t.origin)})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.origin) }

// timed runs f inside a span and returns the span's ID.
func (t *tracer) timed(op, name string, parent int, f func()) int {
	id := t.begin(op, name, parent)
	f()
	t.end(id)
	return id
}

// self returns a span's duration minus the part of it its child spans
// cover (children never overlap: one goroutine records them in turn).
func (t *tracer) self(id int) time.Duration {
	s := t.spans[id-1]
	d := s.End - s.Start
	for _, c := range t.spans[id:] {
		if c.Start >= s.End {
			break
		}
		if c.Parent == id {
			d -= c.End - c.Start
		}
	}
	return d
}

// selfSum totals the self time of every span with the given name.
func (t *tracer) selfSum(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += t.self(s.ID)
		}
	}
	return d
}

// write dumps the spans as JSON lines under .bench_build/trace in the
// checkout.
func (t *tracer) write(tag string) error {
	dir := filepath.Join("..", ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tag+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
