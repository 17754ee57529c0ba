// Package obs is the observability plane: a dependency-free metrics
// registry (fixed-bucket latency histograms plus read callbacks over
// counts a layer already keeps), lightweight per-query trace spans that
// ride the scatter-gather read path, and an admin HTTP surface
// (/metrics, /healthz, /stats, /watch, /debug/pprof/) that makes a live
// multi-process deployment inspectable with curl. The admin surface is
// its own GET-only HTTP/1.1 responder over package net (StartAdmin), not
// net/http, so a binary that speaks HTTP nowhere else (cmd/shardd)
// links no HTTP or TLS stack.
//
// The design contract is that instrumentation must never perturb the
// frozen hot path:
//
//   - A count has no handle. Each layer keeps its own atomics or stats
//     fields and increments them once per event, wired or not; the
//     registry reads them through RegisterFunc at snapshot time, so an
//     event is never counted twice.
//   - Histogram is the one recorded metric: a layer obtains it once at
//     construction and records with one atomic add. It is nil-safe (as
//     is *SlowLog), and layers gate their clock reads on being wired
//     (obsOn), so the un-instrumented path reads no clock and
//     allocates nothing.
//   - Snapshots (the read side) take the registry lock only to walk the
//     name table; callbacks run outside it and histogram values are
//     atomic loads, so readers never stall writers.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

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

// Metric is one flattened registry entry: a func value, or one
// derived histogram statistic (histograms flatten to
// <name>_count / _p50 / _p99 / _max rows). The flattening is what
// keeps /metrics a flat text key-value dump and /stats a flat JSON
// object.
type Metric struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Registry names metrics and serves snapshots. Histograms are
// get-or-create by name: the first caller allocates, later callers
// (and the snapshot side) share the same buckets. All methods are safe
// for concurrent use and nil-safe: a nil registry hands out nil
// histograms, which record nothing.
type Registry struct {
	mu    sync.Mutex
	hists map[string]*Histogram
	funcs map[string][]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists: make(map[string]*Histogram),
		funcs: make(map[string][]func() int64),
	}
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

// RegisterFunc exposes a count the caller already keeps: fn is
// evaluated at snapshot time. The row is the sum of every callback
// registered under name, so the instances of one layer sharing a
// registry (clients, servers, replica sets, indexes) add into one
// row. No-op on a nil registry.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = append(r.funcs[name], fn)
	r.mu.Unlock()
}

// Snapshot flattens every metric to sorted name/value rows: funcs one
// row per name, histograms four derived rows (<name>_count,
// <name>_p50, <name>_p99, <name>_max — for latency histograms the
// suffix convention is a _ns name, so the derived rows read e.g.
// serve_request_ns_p99). Func callbacks run outside the registry lock.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Metric, 0, 4*len(r.hists)+len(r.funcs))
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
	// ordering constraint against the registry's. A name's slice is
	// only ever appended to, so the captured header stays valid.
	type pending struct {
		name string
		fns  []func() int64
	}
	pend := make([]pending, 0, len(r.funcs))
	for name, fns := range r.funcs {
		pend = append(pend, pending{name, fns})
	}
	r.mu.Unlock()
	for _, p := range pend {
		var v int64
		for _, fn := range p.fns {
			v += fn()
		}
		out = append(out, Metric{Name: p.name, Value: v})
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
