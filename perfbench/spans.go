package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into the
// program: engine construction, each sweep batch, Client.Submit/Wait,
// and the snapshot/system probes. A nil tracer records nothing, which
// is how the untraced runs that produce the end-to-end numbers run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Trace  string `json:"trace"`  // spans of one request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id and the function that closes
// it. On a nil tracer both are no-ops.
func (t *tracer) start(trace, name string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: int64(time.Since(t.t0))})
	id := len(t.spans)
	t.mu.Unlock()
	return id, func() {
		end := int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// selfTimes returns each span name's summed self time: the span's
// duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			total += curEnd - cur
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	return total + curEnd - cur
}

// write stores the spans and their per-name self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	selfMS := map[string]float64{}
	for name, d := range self {
		selfMS[name] = float64(d) / 1e6
	}
	t.mu.Lock()
	b, err := json.MarshalIndent(struct {
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{selfMS, t.spans}, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
