package obs

import (
	"sync"
	"time"
)

// Cache outcome labels a QueryTrace carries — the serving layer's
// disposition of a request.
const (
	OutcomeHit         = "hit"         // served from the result cache
	OutcomeMiss        = "miss"        // ran the detector
	OutcomeCoalesced   = "coalesced"   // waited on an identical in-flight request
	OutcomeUncacheable = "uncacheable" // ran around the cache (unobservable epoch vector)
	OutcomeShed        = "shed"        // cold miss refused under overload
	OutcomeRejected    = "rejected"    // degenerate query refused before the cache
)

// ShardSpan is one shard's slice of a scatter-gather query: how long
// its scatter (match + extract, for a remote shard one round trip) and
// gather (denominator fetch) phases took, what it contributed, and
// whether it failed. Spans are recorded by core.ShardedLiveDetector
// only while a registry is attached — the un-instrumented read path
// allocates none of this.
type ShardSpan struct {
	// Shard is the partition index.
	Shard int `json:"shard"`
	// SearchNS and StatsNS time the scatter and gather phases.
	SearchNS int64 `json:"search_ns"`
	StatsNS  int64 `json:"stats_ns"`
	// Matched is the shard's matched-tweet union size; Rows its raw
	// candidate count.
	Matched int `json:"matched"`
	Rows    int `json:"rows"`
	// Err carries the shard's failure, empty when healthy. A failed
	// shard contributed nothing (fail-fast partial results).
	Err string `json:"err,omitempty"`
}

// QueryTrace is one query's end-to-end record: total latency, the
// serving-layer cache outcome, and — for scatter-gather backends with
// a registry attached — the per-shard spans plus the global merge/rank
// time. The serving layer keeps the latest ones in a SlowLog ring.
type QueryTrace struct {
	// Query is the normalized query text.
	Query string `json:"query"`
	// TermSet is the key the answer was cached and coalesced under: the
	// terms the search matched — the query's and its expansion's, each
	// in canonical form, sorted and tab-separated (domains.TermSet.Key).
	// Traces with equal TermSet shared one answer.
	TermSet string `json:"term_set,omitempty"`
	// Start is when the serving layer admitted the request.
	Start time.Time `json:"start"`
	// TotalNS is the end-to-end serving latency.
	TotalNS int64 `json:"total_ns"`
	// Outcome is the cache disposition (Outcome* constants).
	Outcome string `json:"outcome"`
	// MatchedTweets is the global matched-union size (zero for cache
	// hits, which never touched the detector).
	MatchedTweets int `json:"matched_tweets,omitempty"`
	// MergeRankNS times the global gather tail: numerator merge,
	// denominator accumulation, finalize and rank.
	MergeRankNS int64 `json:"merge_rank_ns,omitempty"`
	// Failovers counts replicated reads that failed over during this
	// query (best-effort under concurrency: the delta of the backend's
	// cumulative counter across the request).
	Failovers int64 `json:"failovers,omitempty"`
	// Shards holds the per-shard spans (nil for non-sharded backends
	// and cache hits).
	Shards []ShardSpan `json:"shards,omitempty"`
}

// SlowLog is a fixed-size ring of the most recent query traces, every
// request's: the evidence an operator needs when tail latency moves —
// which queries, which shards, cache outcome, where the time went. All
// methods are safe for concurrent use and nil-safe.
type SlowLog struct {
	mu    sync.Mutex
	ring  []QueryTrace
	next  int   // ring write cursor
	total int64 // traces recorded since construction
}

// NewSlowLog returns a ring of size entries, clamped to at least 1.
func NewSlowLog(size int) *SlowLog {
	return &SlowLog{ring: make([]QueryTrace, 0, max(size, 1))}
}

// Record keeps t, evicting the oldest entry when the ring is full.
func (l *SlowLog) Record(t QueryTrace) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, t)
	} else {
		l.ring[l.next] = t
		l.next = (l.next + 1) % cap(l.ring)
	}
	l.total++
	l.mu.Unlock()
}

// Snapshot returns the kept traces, newest first.
func (l *SlowLog) Snapshot() []QueryTrace {
	traces, _ := l.Since(0)
	return traces
}

// Since returns the kept traces recorded after the first seen ones,
// newest first, and how many traces have been recorded (kept) since
// construction — pass it back as the next call's seen. Traces the ring
// has already evicted are not returned. Both come from one lock
// acquisition, so a reader that always passes the last total back gets
// every trace the ring still held exactly once.
func (l *SlowLog) Since(seen int64) ([]QueryTrace, int64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.ring)
	if fresh := l.total - seen; fresh < int64(n) {
		n = int(max(fresh, 0))
	}
	out := make([]QueryTrace, 0, n)
	// The ring is ordered oldest→newest starting at next (once full);
	// walk its newest n backwards for newest-first.
	for k := len(l.ring) - 1; k >= len(l.ring)-n; k-- {
		i := k
		if len(l.ring) == cap(l.ring) {
			i = (l.next + k) % cap(l.ring)
		}
		out = append(out, l.ring[i])
	}
	return out, l.total
}
