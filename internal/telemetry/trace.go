package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Trace records one job's span timeline: every phase a cell passes
// through (queued, singleflight-wait, checkpoint lookup/resume,
// simulate, store write) becomes a span with wall-time attribution and
// optional attributes (resumed ticks, cache outcomes). The recorder is
// bounded: past MaxSpans, new spans are counted as dropped rather than
// growing without limit, so a long sweep cannot balloon the server.
//
// Traces flow through contexts (WithTrace / StartSpan), so the layers
// being traced need no job plumbing — the engine worker that happens to
// compute a cell records into whichever job's trace rides its context.
type Trace struct {
	mu      sync.Mutex
	scope   string // e.g. the job ID
	start   time.Time
	spans   []Span
	max     int
	dropped uint64
}

// DefaultMaxSpans bounds a trace's recorded spans: a few spans per cell
// across the largest admitted sweeps, without letting a pathological
// job hold tens of millions of spans in memory.
const DefaultMaxSpans = 1 << 17

// Span is one recorded interval, offsets relative to the trace start.
type Span struct {
	// Name is the phase: "queued", "run", "singleflight-wait",
	// "sem-wait", "store-read", "pass" (one engine pass, with a
	// "members" attribute), "checkpoint-lookup", "simulate",
	// "checkpoint-save", "store-write".
	Name string `json:"name"`
	// Scope identifies what the span covers (a cell key, a trajectory
	// key), empty for job-level spans.
	Scope string `json:"scope,omitempty"`
	// StartNS and DurNS place the span on the timeline, in nanoseconds
	// since the trace start.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// Attrs carries span details (resumed tick, tick ranges, outcomes).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// NewTrace returns a trace scoped to the given identifier (a job ID).
// maxSpans <= 0 applies DefaultMaxSpans.
func NewTrace(scope string, maxSpans int) *Trace {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Trace{scope: scope, start: time.Now(), max: maxSpans}
}

// traceKey carries a *Trace through contexts.
type traceKey struct{}

// WithTrace returns ctx carrying t, the trace StartSpan records into.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// add records a finished span.
func (t *Trace) add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) >= t.max {
		t.dropped++
	} else {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// AddSpan records a retroactive span from explicit wall-clock bounds
// (e.g. a job's queued interval, known only once it starts running).
func (t *Trace) AddSpan(name, scope string, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	t.add(Span{
		Name: name, Scope: scope,
		StartNS: start.Sub(t.start).Nanoseconds(),
		DurNS:   end.Sub(start).Nanoseconds(),
		Attrs:   attrs,
	})
}

// ActiveSpan is an in-progress span; End records it. A nil ActiveSpan
// (from a context with no trace) is a no-op, so instrumented code never
// branches on whether tracing is enabled.
type ActiveSpan struct {
	t     *Trace
	name  string
	scope string
	start time.Time
	attrs map[string]any
}

// StartSpan opens a span on ctx's trace (nil if ctx carries none).
func StartSpan(ctx context.Context, name, scope string) *ActiveSpan {
	t := FromContext(ctx)
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, name: name, scope: scope, start: time.Now()}
}

// SetAttr attaches a key/value detail to the span.
func (s *ActiveSpan) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
}

// End records the span with its duration.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.t.add(Span{
		Name: s.name, Scope: s.scope,
		StartNS: s.start.Sub(s.t.start).Nanoseconds(),
		DurNS:   time.Since(s.start).Nanoseconds(),
		Attrs:   s.attrs,
	})
}

// View is a trace's serializable snapshot: spans sorted by start time.
type View struct {
	Scope string    `json:"scope"`
	Start time.Time `json:"start"`
	Spans []Span    `json:"spans"`
	// DroppedSpans counts spans lost to the MaxSpans bound; non-zero
	// means the timeline is a prefix, not the whole story.
	DroppedSpans uint64 `json:"dropped_spans,omitempty"`
}

// Snapshot returns the current view (safe while spans still record).
func (t *Trace) Snapshot() View {
	if t == nil {
		return View{}
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	v := View{Scope: t.scope, Start: t.start, DroppedSpans: t.dropped}
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	v.Spans = spans
	return v
}

// WriteJSON writes the trace as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Snapshot())
}

// chromeEvent is one Chrome trace-event ("X" = complete event).
// Load the file at chrome://tracing or https://ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the trace in Chrome trace-event format. Spans are
// packed onto lanes (tids) by greedy interval partitioning, so
// concurrently executing cells render side by side in about:tracing
// regardless of which pooled goroutine ran them.
func (t *Trace) WriteChrome(w io.Writer) error {
	v := t.Snapshot()
	laneEnds := []int64{} // per lane, the end of its last span
	events := make([]chromeEvent, 0, len(v.Spans))
	for _, s := range v.Spans {
		lane := -1
		for i, end := range laneEnds {
			if end <= s.StartNS {
				lane = i
				break
			}
		}
		if lane == -1 {
			lane = len(laneEnds)
			laneEnds = append(laneEnds, 0)
		}
		laneEnds[lane] = s.StartNS + s.DurNS
		args := s.Attrs
		if s.Scope != "" {
			args = make(map[string]any, len(s.Attrs)+1)
			for k, val := range s.Attrs {
				args[k] = val
			}
			args["scope"] = s.Scope
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "job", Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.DurNS) / 1e3,
			PID: 1, TID: lane, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
	})
}

// SpanCount reports how many spans have been recorded (for tests and
// bounds checks), plus how many were dropped.
func (t *Trace) SpanCount() (recorded int, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), t.dropped
}
