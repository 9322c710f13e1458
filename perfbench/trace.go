package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Spans of one benchmark request share req; parent indexes the enclosing
// span (-1 for a request's root). Times are wall nanoseconds since the
// tracer's epoch.
type span struct {
	name   string
	track  string
	parent int32
	req    uint32
	start  int64
	end    int64
}

// tracer keeps spans in memory and writes them out at exit. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	track string
	every uint32 // record one request in every
	last  uint32 // the last request id handed out
	spans []span
	// dropped counts spans of sampled requests lost to the capacity cap.
	dropped int
}

// spanCap bounds the in-memory span buffer (about 15 MiB of spans).
const spanCap = 1 << 18

func newTracer(every uint32) *tracer {
	return &tracer{epoch: time.Now(), every: every, spans: make([]span, 0, spanCap)}
}

// req returns a fresh request id, shared by the spans of one benchmark
// request (0 when not tracing).
func (t *tracer) req() uint32 {
	if t == nil {
		return 0
	}
	t.last++
	return t.last
}

// sampled reports whether request req has its spans recorded.
func (t *tracer) sampled(req uint32) bool { return t != nil && req%t.every == 0 }

// begin opens a span and returns its index, or -1 when the request is not
// sampled or the buffer is full.
func (t *tracer) begin(name string, parent int32, req uint32) int32 {
	if !t.sampled(req) {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, track: t.track, parent: parent, req: req,
		start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

// end closes a span opened by begin.
func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

// chromeEvent is one Chrome trace-event entry, in the shape the runtime's
// /traces/export endpoint emits.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto): one thread per track (main trials, ladder rungs), one complete
// event per span carrying its request id and parent index.
func (t *tracer) writeChrome(path string) error {
	tids := map[string]int{}
	for _, s := range t.spans {
		if _, ok := tids[s.track]; !ok {
			tids[s.track] = len(tids) + 1
		}
	}
	names := make([]string, 0, len(tids))
	for n := range tids {
		names = append(names, n)
	}
	sort.Strings(names)
	events := []chromeEvent{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "perfbench"}}}
	for _, n := range names {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tids[n],
			Args: map[string]any{"name": n}})
	}
	for i, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: tids[s.track],
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"req": s.req, "span": i, "parent": s.parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{
		"traceEvents": events, "displayTimeUnit": "ns",
	}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
