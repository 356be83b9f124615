package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the benchmark's own spans in memory: workload, then pass or
// batch, then each tool process or daemon request. Spans of one request
// carry its request index. They are written once, at the end, as Chrome
// trace JSON (loadable in Perfetto).
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	id, parent int64
	name, cat  string
	lane       int
	start, end time.Time
	args       map[string]any
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves the id of a span whose children are recorded before it
// ends.
func (t *tracer) newID() int64 { return t.next.Add(1) }

// record stores a finished span. lane separates concurrent spans, such as
// the daemon clients, into their own rows.
func (t *tracer) record(id, parent int64, name, cat string, lane int, start, end time.Time, args map[string]any) {
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{id, parent, name, cat, lane, start, end, args})
	t.mu.Unlock()
}

// write saves the spans as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.lane, Args: args,
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
