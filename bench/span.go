package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the span that caused this one (0 for a root). Start and
// End are nanoseconds since the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced pass runs the same code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished interval and returns its id.
func (r *recorder) add(parent, op int, layer, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// open reserves an id for an interval whose children are recorded
// before it ends; close fills in the end.
func (r *recorder) open(parent, op int, layer, name string) int {
	now := time.Now()
	return r.add(parent, op, layer, name, now, now)
}

func (r *recorder) close(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// call times f as a child span of parent.
func (r *recorder) call(parent, op int, layer, name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	r.add(parent, op, layer, name, t0, t1)
	return t1.Sub(t0)
}

// within records a synthetic child of length d ending at end, clamped
// into [lo, end] — used for intervals the program reports as durations
// (QueueMS, RunMS, Report.Timings) rather than as timestamps.
func (r *recorder) within(parent, op int, layer, name string, lo, end time.Time, d time.Duration) (start time.Time) {
	start = end.Add(-d)
	if start.Before(lo) {
		start = lo
	}
	r.add(parent, op, layer, name, start, end)
	return start
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per layer, the summed self time of the spans: a
// span's duration minus the part of it its children cover (children are
// clipped to the parent and overlapping children are merged).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return out
}
