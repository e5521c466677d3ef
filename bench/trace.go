package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// span is one timed call from the bench into a layer of the program.
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	parent     int           // index of the enclosing span; -1 for a root
	iter       int           // iteration (or session) the call belongs to
	tid        int           // load thread that made the call
}

// tracer keeps the spans of a traced run in memory until the run ends. A
// nil *tracer records nothing, so call sites need no branch.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name string, parent, iter, tid int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, iter: iter, tid: tid})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format
// Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes every closed span as trace-event JSON.
func (t *tracer) writeChrome(w io.Writer, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Ph: "X",
			TS:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.tid,
			Args: map[string]int{"span": i, "parent": s.parent, "iter": s.iter},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"displayTimeUnit": "ms",
		"otherData":       map[string]string{"workload": workload},
		"traceEvents":     evs,
	})
}
