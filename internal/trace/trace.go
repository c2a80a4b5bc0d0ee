// Package trace provides the lightweight performance instrumentation used
// across hfxmd: concurrent counters, gauges, phase timers and fixed-bucket
// histograms. It exists so that the execution reports (package hfx), the
// hfxd job service and the command-line tools can account where time goes
// without pulling in any dependency.
package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a concurrent monotonic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a concurrent instantaneous value (queue depth, open builders,
// jobs in flight). Unlike a Counter it may go down and be overwritten.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the gauge.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Timer accumulates wall-clock durations per named phase. It is safe for
// concurrent use; overlapping phases accumulate independently.
type Timer struct {
	mu     sync.Mutex
	phases map[string]time.Duration
}

// NewTimer returns an empty phase timer.
func NewTimer() *Timer { return &Timer{phases: make(map[string]time.Duration)} }

// Phase runs f and charges its duration to the named phase.
func (t *Timer) Phase(name string, f func()) {
	start := time.Now()
	f()
	t.Charge(name, time.Since(start))
}

// Charge adds d to the named phase.
func (t *Timer) Charge(name string, d time.Duration) {
	t.mu.Lock()
	t.phases[name] += d
	t.mu.Unlock()
}

// Reset clears all phases while keeping the map storage, so a timer can
// be reused across iterations without reallocating.
func (t *Timer) Reset() {
	t.mu.Lock()
	clear(t.phases)
	t.mu.Unlock()
}

// Phases returns a snapshot of the accumulated phases sorted by
// descending duration.
func (t *Timer) Phases() []PhaseDuration {
	t.mu.Lock()
	defer t.mu.Unlock()
	rows := make([]PhaseDuration, 0, len(t.phases))
	for k, v := range t.phases {
		rows = append(rows, PhaseDuration{Name: k, D: v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].D != rows[j].D {
			return rows[i].D > rows[j].D
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// PhaseDuration is one row of a Timer snapshot.
type PhaseDuration struct {
	Name string
	D    time.Duration
}

// Get returns the accumulated duration of a phase.
func (t *Timer) Get(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.phases[name]
}

// String renders all phases sorted by descending time.
func (t *Timer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	type kv struct {
		k string
		v time.Duration
	}
	rows := make([]kv, 0, len(t.phases))
	for k, v := range t.phases {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	s := ""
	for _, r := range rows {
		s += fmt.Sprintf("%-16s %v\n", r.k, r.v)
	}
	return s
}

// Registry is a named collection of counters, gauges and histograms plus
// a phase timer: the metrics surface that long-lived pipeline objects
// (e.g. the persistent HFX builder pool, the hfxd job service) expose
// through their execution reports and /metrics endpoints. Lookup by a
// constant name is allocation-free after the instrument has been
// created, so hot paths may call Counter/Gauge/Histogram per event.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// Timer accumulates the per-phase wall clock of the current
	// iteration; callers Reset it between iterations while the counters
	// persist for the lifetime of the registry.
	Timer *Timer
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		Timer:    NewTimer(),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	r.mu.Unlock()
	return g
}

// Histogram returns the named histogram, creating it with the given
// edges on first use; the edges of an existing histogram are kept.
func (r *Registry) Histogram(name string, edges []float64) *Histogram {
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(edges)
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// CounterValue is one row of a Registry snapshot.
type CounterValue struct {
	Name  string
	Value int64
}

// Counters returns a snapshot of all counters sorted by name.
func (r *Registry) Counters() []CounterValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	rows := make([]CounterValue, 0, len(r.counters))
	for k, c := range r.counters {
		rows = append(rows, CounterValue{Name: k, Value: c.Value()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// GaugeValue is one row of a Registry gauge snapshot.
type GaugeValue struct {
	Name  string
	Value int64
}

// Gauges returns a snapshot of all gauges sorted by name.
func (r *Registry) Gauges() []GaugeValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	rows := make([]GaugeValue, 0, len(r.gauges))
	for k, g := range r.gauges {
		rows = append(rows, GaugeValue{Name: k, Value: g.Value()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// HistogramSnapshot is one row of a Registry histogram snapshot.
type HistogramSnapshot struct {
	Name   string
	Edges  []float64
	Counts []int64 // len(Edges)+1; last entry is overflow
	Total  int64
}

// Histograms returns a snapshot of all histograms sorted by name.
func (r *Registry) Histograms() []HistogramSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	rows := make([]HistogramSnapshot, 0, len(r.hists))
	for k, h := range r.hists {
		rows = append(rows, HistogramSnapshot{
			Name: k, Edges: h.Edges(), Counts: h.Counts(), Total: h.Total(),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// String renders the counters, gauges, histogram quantiles and timer
// phases, in that order, each sorted deterministically.
func (r *Registry) String() string {
	s := ""
	for _, c := range r.Counters() {
		s += fmt.Sprintf("%-24s %d\n", c.Name, c.Value)
	}
	for _, g := range r.Gauges() {
		s += fmt.Sprintf("%-24s %d\n", g.Name, g.Value)
	}
	for _, h := range r.Histograms() {
		r.mu.Lock()
		hh := r.hists[h.Name]
		r.mu.Unlock()
		s += fmt.Sprintf("%-24s n=%d p50<=%g p95<=%g\n", h.Name, h.Total, hh.Quantile(0.5), hh.Quantile(0.95))
	}
	for _, p := range r.Timer.Phases() {
		s += fmt.Sprintf("%-24s %v\n", p.Name, p.D)
	}
	return s
}

// Histogram is a fixed-boundary histogram for positive values (e.g. task
// costs). Boundaries are upper bucket edges; values beyond the last edge
// land in the overflow bucket.
type Histogram struct {
	edges  []float64
	counts []atomic.Int64
}

// NewHistogram creates a histogram with the given ascending upper edges.
func NewHistogram(edges []float64) *Histogram {
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("trace: histogram edges must ascend")
		}
	}
	return &Histogram{
		edges:  append([]float64(nil), edges...),
		counts: make([]atomic.Int64, len(edges)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.edges, v)
	h.counts[i].Add(1)
}

// Edges returns a copy of the bucket upper edges.
func (h *Histogram) Edges() []float64 {
	return append([]float64(nil), h.edges...)
}

// Counts returns the per-bucket counts (last entry is overflow).
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 {
	var t int64
	for i := range h.counts {
		t += h.counts[i].Load()
	}
	return t
}

// Quantile returns an upper bound for the q-quantile (0<q≤1) based on the
// bucket edges; +Inf-ish (last edge) when it falls in the overflow bucket.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			if i < len(h.edges) {
				return h.edges[i]
			}
			return h.edges[len(h.edges)-1]
		}
	}
	return h.edges[len(h.edges)-1]
}
