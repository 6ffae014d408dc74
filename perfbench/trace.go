package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the traced run made into a layer, from the
// benchmark's own code: the layer (module) name, what was called, its
// start and end relative to the tracer's start, and the index of the
// span that caused it (-1 for a root).
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// tracer keeps the traced run's spans in memory until the run ends. A
// nil *tracer records nothing, which is how untraced windows and runs
// call the same code.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// open starts a span whose end is filled in by close, for a parent
// whose children are recorded while it runs.
func (t *tracer) open(layer, name string, parent int32, start time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Start: start.Sub(t.t0).Nanoseconds(), Parent: parent})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// record adds a finished span.
func (t *tracer) record(layer, name string, parent int32, start, end time.Time) {
	t.close(t.open(layer, name, parent, start), end)
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(layer, name string, parent int32, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(layer, name, parent, start, end)
	return end.Sub(start)
}

// medianSpan runs fn reps times, each as a span, and returns the median
// duration.
func (t *tracer) medianSpan(layer, name string, reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		ds[i] = float64(t.timed(layer, name, -1, fn))
	}
	return time.Duration(median(ds))
}

func (t *tracer) spanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
