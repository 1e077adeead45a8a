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

// span is one timed call into a layer, recorded from outside the layer.
// Start and End are nanoseconds since the tracer's epoch; Parent is the
// index of the enclosing span (-1 for a root), and ID names the cell or
// request the span served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     string `json:"id,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no checks.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index (-1 when untraced).
func (t *tracer) add(name string, start, end time.Time, parent int, id string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(),
		End: end.Sub(t.epoch).Nanoseconds(), Parent: parent, ID: id})
	return len(t.spans) - 1
}

// begin opens a span that children can name as their parent before it
// ends; finish closes it.
func (t *tracer) begin(name string, parent int, id string) int {
	now := time.Now()
	return t.add(name, now, now, parent, id)
}

func (t *tracer) finish(i int) {
	if t == nil || i < 0 {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span, plus the run context, as one JSON document.
func (t *tracer) write(path string, runCtx map[string]any) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Context map[string]any `json:"context"`
		Spans   []span         `json:"spans"`
	}{runCtx, t.snapshot()})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// stragglerNS is the time from the last moment all workers were busy
// inside calls (the first worker going idle for good) to end. Calls are
// the spans of one sweep; end is the sweep's end.
func stragglerNS(calls []span, workers int, end int64) int64 {
	type edge struct {
		t     int64
		delta int
	}
	edges := make([]edge, 0, 2*len(calls))
	for _, c := range calls {
		edges = append(edges, edge{c.Start, +1}, edge{c.End, -1})
	}
	// Ends sort before starts at the same instant, so back-to-back calls
	// on one worker do not count as both workers busy.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta
	})
	busy, lastFull := 0, int64(-1)
	for _, e := range edges {
		busy += e.delta
		if e.delta < 0 && busy == workers-1 {
			lastFull = e.t
		}
	}
	if lastFull < 0 {
		return 0
	}
	return end - lastFull
}
