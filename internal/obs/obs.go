// Package obs is the observability plane: a dependency-free metrics
// registry (atomic counters, gauges and fixed-bucket latency
// histograms), lightweight per-query trace spans that ride the
// scatter-gather read path, and an admin HTTP surface (/metrics,
// /healthz, /stats, /watch, /debug/pprof/) that makes a live
// multi-process deployment inspectable with curl.
//
// The design contract is that instrumentation must never perturb the
// frozen hot path:
//
//   - Recording is a single atomic add behind a pre-registered handle —
//     callers obtain *Counter/*Gauge/*Histogram once at construction
//     and record lock-free afterwards, with zero allocations.
//   - Every handle method is nil-safe: a nil *Counter (or *Gauge,
//     *Histogram, *SlowLog) records nothing, so an un-instrumented
//     deployment pays one predictable-branch nil check and nothing
//     else. Layers gate their time.Now() calls on the registry being
//     present, so the un-instrumented configuration takes zero timing
//     overhead too.
//   - Snapshots (the read side) take the registry lock only to walk the
//     name table; metric values are atomic loads, so readers never
//     stall writers.
//
// A Registry names metrics and serves snapshots; the handles themselves
// are plain structs that work standalone, which is what lets a layer
// fall back to private unregistered counters when no registry is wired
// (the transport server's per-op request counters, for example, must
// keep counting for the RPC-accounting tests whether or not an operator
// attached an admin plane).
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; all methods are safe for concurrent use and nil-safe
// (a nil Counter records nothing and reads zero).
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time level (current segment count, cache size).
// The zero value is ready to use; all methods are safe for concurrent
// use and nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's level.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge's level by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Load returns the current level.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of every Histogram: bucket i
// holds observations v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i). 64 power-of-two buckets cover the full int64 range —
// for latencies in nanoseconds that is sub-ns through ~292 years — so
// recording never needs range checks beyond one clamp.
const histBuckets = 64

// Histogram is a fixed-bucket distribution tuned for latency
// recording: Observe is one atomic add into a power-of-two bucket —
// no locks, no allocation, single-digit nanoseconds — and the read
// side reconstructs count, approximate quantiles and an approximate
// mean from the bucket counts alone. The zero value is ready to use;
// all methods are safe for concurrent use and nil-safe.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one value (for latency histograms, nanoseconds).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// HistSnapshot is one consistent-enough read of a histogram: bucket
// counts are loaded in one pass (concurrent Observes may land between
// loads, which only ever under-counts the tail of the pass — totals
// are conserved per bucket, never lost).
type HistSnapshot struct {
	// Buckets[i] counts observations in [2^(i-1), 2^i).
	Buckets [histBuckets]int64
	// Count is the sum over Buckets.
	Count int64
}

// Snapshot loads the bucket counts.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		b := h.buckets[i].Load()
		s.Buckets[i] = b
		s.Count += b
	}
	return s
}

// Quantile returns the upper bound (2^i) of the bucket the q-quantile
// falls in, for q in [0, 1] — an upper estimate no more than 2x the
// true value, which is the right fidelity for latency dashboards at
// one atomic add per observation. Zero observations report zero.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for i, b := range s.Buckets {
		seen += b
		if seen > rank {
			return upperBound(i)
		}
	}
	return upperBound(histBuckets - 1)
}

// Max returns the upper bound of the highest non-empty bucket (an
// upper estimate of the largest observation). Zero observations report
// zero.
func (s HistSnapshot) Max() int64 {
	for i := histBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return upperBound(i)
		}
	}
	return 0
}

// upperBound returns bucket i's exclusive upper bound, saturating at
// MaxInt64.
func upperBound(i int) int64 {
	if i >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1) << i
}

// Metric is one flattened registry entry: a counter, gauge or func
// value, or one derived histogram statistic (histograms flatten to
// <name>_count / _p50 / _p99 / _max rows). The flattening is what
// keeps /metrics a flat text key-value dump and /stats a flat JSON
// object.
type Metric struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Registry names metrics and serves snapshots. Handles are get-or-
// create by name: the first caller allocates, later callers (and the
// snapshot side) share the same underlying atomic. All methods are
// safe for concurrent use; every lookup method is nil-safe and returns
// a nil handle on a nil registry, which downstream records discard —
// the zero-cost un-instrumented path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. A
// nil registry returns a nil (no-op) handle.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterFunc exposes a read-callback metric: fn is evaluated at
// snapshot time, which is how pre-existing counters (serve.Stats
// fields, an index's segment count) surface in the registry without
// double accounting on their write paths. Re-registering a name
// replaces the callback. No-op on a nil registry.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Snapshot flattens every metric to sorted name/value rows: counters,
// gauges and funcs one row each, histograms four derived rows
// (<name>_count, <name>_p50, <name>_p99, <name>_max — for latency
// histograms the suffix convention is a _ns name, so the derived rows
// read e.g. serve_request_ns_p99). Func callbacks run outside the
// registry lock.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+4*len(r.hists)+len(r.funcs))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Value: c.Load()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Value: g.Load()})
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		out = append(out,
			Metric{Name: name + "_count", Value: s.Count},
			Metric{Name: name + "_p50", Value: s.Quantile(0.50)},
			Metric{Name: name + "_p99", Value: s.Quantile(0.99)},
			Metric{Name: name + "_max", Value: s.Max()},
		)
	}
	// Capture the callbacks so they run unlocked: a callback is free to
	// take other locks (serve.Stats takes the cache mutex) without any
	// ordering constraint against the registry's.
	type pending struct {
		name string
		fn   func() int64
	}
	pend := make([]pending, 0, len(r.funcs))
	for name, fn := range r.funcs {
		pend = append(pend, pending{name, fn})
	}
	r.mu.Unlock()
	for _, p := range pend {
		out = append(out, Metric{Name: p.name, Value: p.fn()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteMetrics appends the flat text form — one "name value" line per
// snapshot row, sorted by name — to dst and returns it. This is the
// /metrics wire format.
func (r *Registry) WriteMetrics(dst []byte) []byte {
	for _, m := range r.Snapshot() {
		dst = append(dst, m.Name...)
		dst = append(dst, ' ')
		dst = fmt.Appendf(dst, "%d", m.Value)
		dst = append(dst, '\n')
	}
	return dst
}
