// Package obs is the engine's observability layer: a stdlib-only metrics
// registry (atomic counters, gauges, fixed-bucket latency histograms) and
// a hierarchical span tracer (trace.go).
//
// Everything is nil-safe: methods on a nil *Registry, *Counter, *Gauge,
// *Histogram, *Tracer or *Span are no-ops, so instrumented code reads
// unconditionally —
//
//	reg.Counter("engine.query.count").Inc()
//
// — and costs a single pointer test when observability is disabled. Hot
// loops should still hoist the metric lookup (or accumulate locally and
// publish once per operation) since get-or-create takes a lock.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an atomic instantaneous value (breaker state, mounted members,
// cache sizes).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) reset() { g.v.Store(0) }

// HistBuckets is the number of fixed exponential histogram buckets.
// Bucket 0 holds observations ≤ 1µs; each following bucket doubles the
// upper bound, so the last covers everything past ~4.6 hours — wide
// enough for any latency this engine can produce.
const HistBuckets = 34

// Histogram is a fixed-bucket latency histogram with exponential bucket
// bounds (1µs, 2µs, 4µs, …). Observations are durations; counts and the
// running sum are atomic, so concurrent Observe calls need no lock.
type Histogram struct {
	counts [HistBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	// Exact extrema, complementing the bucket-bound quantiles. minPlus1
	// stores min+1 so the zero value means "no observations yet" while a
	// genuine 0ns observation stays representable.
	minPlus1 atomic.Int64
	max      atomic.Int64
	// unit is "" for durations (the default) or "count" for dimensionless
	// distributions (e.g. group-commit batch sizes). Set once at creation,
	// before the pointer is shared; it only changes how snapshots render.
	unit string
}

// ObserveN records one dimensionless observation (a batch size, a row
// count) into a count-unit histogram.
func (h *Histogram) ObserveN(n int64) {
	h.Observe(time.Duration(n))
}

// bucketIndex maps a duration to its bucket: the smallest i with
// d ≤ 1µs·2^i, clamped to the last bucket.
func bucketIndex(d time.Duration) int {
	ns := int64(d)
	if ns <= 1000 {
		return 0
	}
	i := bits.Len64(uint64((ns - 1) / 1000))
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// BucketUpper returns bucket i's inclusive upper bound.
func BucketUpper(i int) time.Duration {
	return time.Duration(1000 << uint(i))
}

// Observe records one duration (negative observations count as zero).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)].Add(1)
	ns := int64(d)
	h.sum.Add(ns)
	for {
		cur := h.minPlus1.Load()
		if cur != 0 && cur <= ns+1 {
			break
		}
		if h.minPlus1.CompareAndSwap(cur, ns+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= ns {
			break
		}
		if h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	// The count goes last: a reader that sees it sees the extrema that
	// go with it (WindowedHistogram.SnapshotAt).
	h.count.Add(1)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h == nil {
		return 0
	}
	mp1 := h.minPlus1.Load()
	if mp1 == 0 {
		return 0
	}
	return time.Duration(mp1 - 1)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1), linearly interpolated
// within the winning bucket and clamped to the observed Min/Max — so a
// histogram holding one 3µs observation reports p99 = 3µs, not the 4µs
// bucket bound.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	var counts [HistBuckets]uint64
	for i := range counts {
		counts[i] = h.counts[i].Load()
	}
	return quantileOf(&counts, h.Count(), h.Min(), h.Max(), q)
}

// quantileOf computes an interpolated quantile over fixed exponential
// bucket counts. Bucket i covers (BucketUpper(i-1), BucketUpper(i)]
// (bucket 0 starts at 0); the rank's position within its bucket
// interpolates linearly between the bounds, and the result clamps to
// the exact observed extrema. Shared by Histogram and WindowSnapshot.
func quantileOf(counts *[HistBuckets]uint64, n uint64, min, max time.Duration, q float64) time.Duration {
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n))
	if rank == 0 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum uint64
	for i := 0; i < HistBuckets; i++ {
		c := counts[i]
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		lower := time.Duration(0)
		if i > 0 {
			lower = BucketUpper(i - 1)
		}
		upper := BucketUpper(i)
		frac := float64(rank-cum) / float64(c)
		v := lower + time.Duration(frac*float64(upper-lower))
		if v < min {
			v = min
		}
		if v > max {
			v = max
		}
		return v
	}
	return max
}

// Buckets returns a copy of the raw bucket counts.
func (h *Histogram) Buckets() [HistBuckets]uint64 {
	var out [HistBuckets]uint64
	if h == nil {
		return out
	}
	for i := range out {
		out[i] = h.counts[i].Load()
	}
	return out
}

// reset empties the histogram, count first, so a reader never sees a
// count whose extrema were already zeroed.
func (h *Histogram) reset() {
	h.count.Store(0)
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
	h.minPlus1.Store(0)
	h.max.Store(0)
}

// Registry is a named collection of metrics. Lookup is get-or-create and
// safe for concurrent use; the returned metric pointers are stable, so
// hot paths can look a metric up once and keep the pointer.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	windows  map[string]*WindowedHistogram
	slos     map[string]*SLOTracker
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		windows:  map[string]*WindowedHistogram{},
		slos:     map[string]*SLOTracker{},
	}
}

// Counter returns the named counter, creating it on first use. nil
// registry returns nil (a no-op counter).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// CountHistogram returns the named dimensionless histogram (batch
// sizes, row counts), creating it on first use. Snapshots render its
// values as plain integers instead of durations.
func (r *Registry) CountHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{unit: "count"}
	r.hists[name] = h
	return h
}

// Window returns the named rolling-window histogram (DefaultWindow /
// DefaultWindowSlices), creating it on first use.
func (r *Registry) Window(name string) *WindowedHistogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	w, ok := r.windows[name]
	r.mu.RUnlock()
	if ok {
		return w
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok = r.windows[name]; ok {
		return w
	}
	w = NewWindow(DefaultWindow, DefaultWindowSlices)
	r.windows[name] = w
	return w
}

// WindowValue snapshots the named window without creating it.
func (r *Registry) WindowValue(name string) (WindowSnapshot, bool) {
	if r == nil {
		return WindowSnapshot{}, false
	}
	r.mu.RLock()
	w, ok := r.windows[name]
	r.mu.RUnlock()
	if !ok {
		return WindowSnapshot{}, false
	}
	return w.Snapshot(), true
}

// SLO returns the named SLO tracker, creating it on first use with the
// given target latency and availability objective (zero values take the
// Default* constants). The first creator's parameters win; adjust later
// with SetTarget/SetObjective.
func (r *Registry) SLO(name string, target time.Duration, objective float64) *SLOTracker {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	t, ok := r.slos[name]
	r.mu.RUnlock()
	if ok {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok = r.slos[name]; ok {
		return t
	}
	t = NewSLO(name, target, objective, DefaultWindow, DefaultWindowSlices)
	r.slos[name] = t
	return t
}

// SLOStatuses reports every registered SLO tracker, sorted by name.
func (r *Registry) SLOStatuses() []SLOStatus {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]SLOStatus, 0, len(r.slos))
	for _, t := range r.slos {
		out = append(out, t.Status())
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Reset zeroes every registered metric (the metrics stay registered, so
// held pointers remain valid).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
	for _, w := range r.windows {
		for i := range w.slices {
			s := &w.slices[i]
			s.mu.Lock()
			s.h.reset()
			s.slot.Store(-1)
			s.mu.Unlock()
		}
	}
	for _, t := range r.slos {
		for _, wc := range []*windowedCounter{t.total, t.bad} {
			for i := range wc.slices {
				s := &wc.slices[i]
				s.mu.Lock()
				s.n.Store(0)
				s.slot.Store(-1)
				s.mu.Unlock()
			}
		}
	}
}

// CounterValue reads a counter without creating it (0 when absent).
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.counters[name].Value()
}

// GaugeValue reads a gauge without creating it (0 when absent).
func (r *Registry) GaugeValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gauges[name].Value()
}

// ---------------------------------------------------------------------------
// Snapshots

// CounterVal is one counter in a snapshot.
type CounterVal struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeVal is one gauge in a snapshot.
type GaugeVal struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistVal summarizes one histogram in a snapshot. Durations are
// nanoseconds; quantiles are interpolated within their bucket and
// clamped to the exact extrema observed. Unit "count" marks a
// dimensionless histogram whose values are plain integers.
type HistVal struct {
	Name   string `json:"name"`
	Unit   string `json:"unit,omitempty"`
	Count  uint64 `json:"count"`
	SumNS  int64  `json:"sum_ns"`
	MeanNS int64  `json:"mean_ns"`
	MinNS  int64  `json:"min_ns"`
	P50NS  int64  `json:"p50_ns"`
	P99NS  int64  `json:"p99_ns"`
	MaxNS  int64  `json:"max_ns"`
}

// WindowVal summarizes one rolling-window histogram in a snapshot.
type WindowVal struct {
	Name       string  `json:"name"`
	WindowNS   int64   `json:"window_ns"`
	Count      uint64  `json:"count"`
	RatePerSec float64 `json:"rate_per_sec"`
	MeanNS     int64   `json:"mean_ns"`
	P50NS      int64   `json:"p50_ns"`
	P99NS      int64   `json:"p99_ns"`
	P999NS     int64   `json:"p999_ns"`
	MaxNS      int64   `json:"max_ns"`
}

// Snapshot is a point-in-time copy of every registered metric, sorted by
// name — the unit the debug endpoint serializes and the CLI renders.
type Snapshot struct {
	Counters   []CounterVal `json:"counters"`
	Gauges     []GaugeVal   `json:"gauges"`
	Histograms []HistVal    `json:"histograms"`
	Windows    []WindowVal  `json:"windows,omitempty"`
	SLOs       []SLOStatus  `json:"slos,omitempty"`
}

// Snapshot captures the registry. Values are read atomically per metric;
// the snapshot as a whole is not a consistent cut (fine for monitoring).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterVal{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeVal{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, HistVal{
			Name:   name,
			Unit:   h.unit,
			Count:  h.Count(),
			SumNS:  int64(h.Sum()),
			MeanNS: int64(h.Mean()),
			MinNS:  int64(h.Min()),
			P50NS:  int64(h.Quantile(0.5)),
			P99NS:  int64(h.Quantile(0.99)),
			MaxNS:  int64(h.Max()),
		})
	}
	for name, w := range r.windows {
		ws := w.Snapshot()
		s.Windows = append(s.Windows, WindowVal{
			Name:       name,
			WindowNS:   int64(ws.Window),
			Count:      ws.Count,
			RatePerSec: ws.Rate(),
			MeanNS:     int64(ws.Mean()),
			P50NS:      int64(ws.Quantile(0.5)),
			P99NS:      int64(ws.Quantile(0.99)),
			P999NS:     int64(ws.Quantile(0.999)),
			MaxNS:      int64(ws.Max),
		})
	}
	for _, t := range r.slos {
		s.SLOs = append(s.SLOs, t.Status())
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	sort.Slice(s.Windows, func(i, j int) bool { return s.Windows[i].Name < s.Windows[j].Name })
	sort.Slice(s.SLOs, func(i, j int) bool { return s.SLOs[i].Name < s.SLOs[j].Name })
	return s
}

// WriteJSON serializes a snapshot of the registry to w.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Table renders the snapshot as an aligned two-column table (histograms
// get a summary column), sorted by name — the CLI's `\stats` view.
func (s Snapshot) Table() string {
	width := 0
	for _, c := range s.Counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, g := range s.Gauges {
		if len(g.Name) > width {
			width = len(g.Name)
		}
	}
	for _, h := range s.Histograms {
		if len(h.Name) > width {
			width = len(h.Name)
		}
	}
	for _, w := range s.Windows {
		if len(w.Name) > width {
			width = len(w.Name)
		}
	}
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "%-*s  %d\n", width, c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "%-*s  %d\n", width, g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		if h.Unit == "count" {
			fmt.Fprintf(&b, "%-*s  n=%d mean=%d min=%d p50=%d p99=%d max=%d\n",
				width, h.Name, h.Count, h.MeanNS, h.MinNS, h.P50NS, h.P99NS, h.MaxNS)
			continue
		}
		fmt.Fprintf(&b, "%-*s  n=%d mean=%s min=%s p50=%s p99=%s max=%s\n",
			width, h.Name, h.Count,
			time.Duration(h.MeanNS), time.Duration(h.MinNS),
			time.Duration(h.P50NS), time.Duration(h.P99NS), time.Duration(h.MaxNS))
	}
	for _, w := range s.Windows {
		fmt.Fprintf(&b, "%-*s  win=%s n=%d rate=%.3g/s mean=%s p50=%s p99=%s p999=%s\n",
			width, w.Name, time.Duration(w.WindowNS), w.Count, w.RatePerSec,
			time.Duration(w.MeanNS), time.Duration(w.P50NS),
			time.Duration(w.P99NS), time.Duration(w.P999NS))
	}
	for _, t := range s.SLOs {
		fmt.Fprintf(&b, "%s\n", t.String())
	}
	return b.String()
}
