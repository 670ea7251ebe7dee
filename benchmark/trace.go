package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark from outside the program. Spans of one op (a run, a
// request cycle) share Op. A child on another Track than its parent ran
// concurrently with it (a load-generator connection under the phase
// that started it) and is not subtracted from the parent's self time.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
	Track   int    `json:"track"`
}

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass runs the same code without the cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (the parent for children).
func (t *tracer) begin(name string, parent int, op int64, track int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, StartNS: now, Parent: parent, Op: op, Track: track})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the durations of its
// same-track children. Same-track children are sequential and nested by
// construction, so plain subtraction is the uncovered part.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 && spans[s.Parent].Track == s.Track {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// layerOf maps a span name ("experiment.RunInto") to its layer.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// summarize folds the spans into the trace.* per-layer metrics: self
// seconds per layer over all tracks, and the share of the root span's
// duration that the main track's self times account for (1 when every
// main-track span nests properly).
func (t *tracer) summarize(into map[string]float64) {
	self := selfTimes(t.spans)
	var mainSum int64
	for i, s := range t.spans {
		key := "trace.self_s_" + layerOf(s.Name)
		if _, ok := into[key]; ok {
			into[key] += float64(self[i]) / 1e9
		}
		if s.Track == 0 {
			mainSum += self[i]
		}
	}
	into["trace.spans"] = float64(len(t.spans))
	if len(t.spans) > 0 {
		root := t.spans[0]
		into["trace.self_sum_ratio"] = float64(mainSum) / float64(root.EndNS-root.StartNS)
	}
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
