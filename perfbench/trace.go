package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the ID of the span whose call caused this
// one, 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil tracer records nothing, so untraced runs pay one
// nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newReq returns a fresh request identifier.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON to path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums each span name's self time: a span's duration minus the
// part of it covered by its children, where overlapping children (the two
// halves of a parallel call) count once.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}
