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

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks (the common "type 7" definition); 0 for an empty
// sample. Near the top of a small sample this weighs the largest values
// instead of returning the maximum alone.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

// median is the middle of xs (mean of the two middles for even sizes).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tally counts operations attempted and failed; each failure keeps its
// reason for standard error.
type tally struct {
	mu        sync.Mutex
	attempted int
	failures  []string
}

func (t *tally) op(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// metrics collects named values in the order they were produced.
type metrics map[string]float64

// span is one traced interval around a call into a layer. Spans of one
// operation share the parent chain up to the operation's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run; a nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span under parent (0 = root) and returns its id and a
// closer that records the end time and returns the span's duration.
func (t *tracer) begin(parent int, name string) (int, func() time.Duration) {
	start := time.Now()
	if t == nil {
		return 0, func() time.Duration { return time.Since(start) }
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.base))})
	t.mu.Unlock()
	return id, func() time.Duration {
		end := time.Now()
		t.mu.Lock()
		t.spans[id-1].End = int64(end.Sub(t.base))
		t.mu.Unlock()
		return end.Sub(start)
	}
}

// write stores the spans as one JSON file.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
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
