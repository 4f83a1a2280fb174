package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one query share
// Query; Parent is the ID of the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Source string `json:"source,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	// Busy lists the intervals spent inside the call: one per call for a
	// one-shot call, one per open/Next/Close for a streamed one, whose
	// span stays open while the consumer works between pulls.
	Busy [][2]int64 `json:"busy"`

	Pushes  int `json:"pushes,omitempty"`
	Fetches int `json:"fetches,omitempty"`
	Tuples  int `json:"tuples,omitempty"`
	// ParamPushes counts pushes that carry parameters, Bindings the
	// parameter sets they carry (one per binding of a batch).
	ParamPushes int `json:"param_pushes,omitempty"`
	Bindings    int `json:"bindings,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

func (s *span) busy() int64 {
	var t int64
	for _, b := range s.Busy {
		t += b[1] - b[0]
	}
	return t
}

// recorder keeps every span of a traced run in memory. The traced run
// issues one query at a time, so the current query id and the current
// layer span are recorder state rather than context values.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []*span
	query int
	cur   *span            // the mediator-level span source calls belong to
	open  map[string]*span // latest client span per source: parent of wrapper spans
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), open: map[string]*span{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span of the current query under parent (nil: a root).
func (r *recorder) begin(name string, parent *span) *span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.add(name, "", parent)
}

// add opens a span; r.mu must be held.
func (r *recorder) add(name, source string, parent *span) *span {
	s := &span{ID: len(r.spans) + 1, Query: r.query, Name: name, Source: source, Start: r.now()}
	if parent != nil {
		s.Parent = parent.ID
	}
	r.spans = append(r.spans, s)
	return s
}

// end closes a one-shot span: its whole duration was spent in the call.
func (r *recorder) end(s *span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.End = r.now()
	s.Busy = append(s.Busy, [2]int64{s.Start, s.End})
}

// closed adds a finished span of the current query whose bounds were
// observed rather than timed around one call.
func (r *recorder) closed(name string, parent *span, start, end int64) *span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.add(name, "", parent)
	s.Start, s.End = start, end
	s.Busy = [][2]int64{{start, end}}
	return s
}

// setQuery starts a new query id; setCur names the span that source calls
// made from now on belong to.
func (r *recorder) setQuery(q int) {
	r.mu.Lock()
	r.query = q
	r.mu.Unlock()
}

func (r *recorder) setCur(s *span) {
	r.mu.Lock()
	r.cur = s
	r.mu.Unlock()
}

// byQuery groups the spans by query id.
func (r *recorder) byQuery() map[int][]*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int][]*span{}
	for _, s := range r.spans {
		out[s.Query] = append(out[s.Query], s)
	}
	return out
}

// write saves every span as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	var c [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range c {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// selfTime is a span's duration minus the part its children's busy
// intervals cover.
func selfTime(s *span, children []*span) int64 {
	var ivs [][2]int64
	for _, c := range children {
		ivs = append(ivs, c.Busy...)
	}
	return s.dur() - covered(ivs, s.Start, s.End)
}
