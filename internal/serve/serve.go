// Package serve is the online serving layer of the reproduction: a
// concurrent query front-end over a shared e# engine behind the
// Backend interface — core.ShardedLiveDetector over the shard set of
// internal/shard, whatever its shape: many shards, one streaming index
// (core.NewLiveDetector) or a frozen corpus that never ingests. The
// paper's deployment answers expert queries from
// production web-search traffic while new tweets keep arriving; this
// package models that stage so serving throughput can be measured and
// improved PR over PR under both read-only and mixed read/write load.
//
// A Server multiplexes concurrent e# requests over one Backend and
// fronts them with an LRU result cache keyed on what determines the
// answer. e# expands a query to the members of its
// expertise domain and ranks the union of their matches once, so the
// answer is a function of the expanded term set, not of the query
// string: at admission the server canonicalizes the query — lower-cased
// tokens, sorted and de-duplicated, under which the AND-match predicate
// and domain lookup (domains.Collection.Lookup) are both invariant —
// and asks the backend for the key of the term set that canonical query
// expands to (Backend.TermSetKey: a table lookup, no I/O, no
// allocation). The canonical form is built into the request's pooled
// scratch and handed over as bytes, so a query in the backend's table
// is admitted without allocating in any token order; one outside it is
// its own term set and keys on its canonical form, which costs a copy
// only when its tokens arrived out of order. "go rust", "rust go" and
// "go go rust" are one key, and so is every member query of a domain
// small enough to expand to all of itself: they share a cache slot and
// coalesce onto a single in-flight computation, and a write
// invalidates their answer once, not once per spelling. The backend still receives the normalized, order-preserving
// text.
//
// The key space is therefore small and closed, and a cache slot
// outlives its contents. A slot is created the first time its key is
// computed and from then on is only emptied and refilled: an epoch move
// empties it in place (the map cell and the LRU links stay, one
// invalidation is counted), and the recomputation allocates one object
// — the result, which is the flight other requests wait on while it
// runs and the slot's immutable content once it completes, its epoch
// vector inline for up to four shards — and nothing else; the channel
// followers wait on is made by the first follower, so a flight nobody
// joins has none. A flight that ends in no slot — the cache is off,
// the sample was uncacheable, the answer failed or was partial — and
// that nobody joined is unreachable once its leader returns, so it goes
// back to a pool the server owns: a cache-less server's miss allocates
// nothing of its own. Its ranking is then the leader's alone: given a
// buffer, the leader copies it there and hands the backend's back
// (Backend.Recycle). LRU eviction bounds the slots, filled or emptied,
// at Config.CacheSize, which is what Stats.CacheEntries counts. Three
// mechanisms keep the cache honest and cheap under load:
//
//   - Epoch invalidation: every cached result is tagged with the
//     backend's view identity at compute time — the vector of
//     per-shard epochs. A shard bumps its epoch on every snapshot swap
//     (ingest, seal, compaction), and a result is stale as soon as any
//     component advances, so a lookup that finds a result from an
//     older view drops it and recomputes instead of serving pre-ingest
//     results — exactly one shard absorbing a post invalidates the
//     results computed over the older composite view. A backend nobody
//     writes to never invalidates.
//   - Singleflight: concurrent cold misses for one key coalesce onto
//     one in-flight computation; followers wait for the leader's result
//     instead of running the detector N times. Coalescing keys on the
//     cache key, not the epoch sample, so cold misses under ingest
//     churn still collapse; the leader's result carries the epoch
//     vector it sampled before computing, which is conservatively
//     already stale if the index moved mid-flight.
//   - Admission control: degenerate queries (empty, or over
//     maxQueryTerms tokens) are rejected with a typed error
//     before touching the cache, and under overload a cold miss is
//     shed with ErrOverloaded once Config.MaxInflightMisses detector
//     computations are already running — warm cache hits are always
//     answered, so a saturated backend degrades to a read-only cache
//     instead of queueing unbounded detector work.
//
// Answer is the entry point the gateway calls. It takes the request's
// deadline as a plain instant and attaches it to the context only once
// the request has missed the cache — from there the remaining budget
// rides the context down the scatter-gather into per-shard RPC
// deadlines, and an expired budget surfaces as the context's error
// (the gateway maps it to 504) — so a warm hit builds no context. The
// leader's context is a budget inside its flight, so it costs no
// allocation of its own: it holds the deadline as a value, read against
// the clock, arms a timer only for a caller that waits on Done, and
// lets go of the request's context once the miss returns. A
// hit also returns the ranking's JSON: a cached result is immutable
// after insert and carries json.Marshal of its experts, encoded by its
// first hit, once, outside the lock; a miss encodes nothing.
//
// The root package's topology matrix drives a Server with concurrent
// searchers beside live writers in every deployment layout before it
// quiesces and compares; throughput is measured by bench/, not here.
package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/obs"
	"repro/internal/textutil"
)

// Backend is the query engine a Server fronts — exactly the calls it
// makes. core.ShardedLiveDetector is the implementation; tests
// substitute stubs.
type Backend interface {
	// SearchContext runs one e# query under the caller's deadline; the
	// sharded detector threads the context down its scatter-gather into
	// per-shard RPC deadlines. An answer some shards were missing from
	// names them (SearchTrace.Missing): the server never caches it. The
	// ranking is the server's until it hands it back through Recycle.
	SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error)
	// Recycle hands back a ranking SearchContext returned once the
	// server has copied it into its caller's buffer; nothing reads it
	// afterwards. One a cache slot keeps or a follower shares never
	// comes back.
	Recycle(ranking []expertise.Expert)
	// TermSetKey returns the identity of the term set an e# search for
	// the query with canonical form canon (tokens sorted, de-duplicated,
	// single-spaced) matches: queries with equal keys have the same
	// answer at the same view, and the server caches and coalesces them
	// as one. canon is the server's scratch, valid only for the call. It
	// returns "" when its table holds no term set for canon (a backend
	// with no closed table always does): such a query is its own term
	// set, and the server keys it on canon.
	TermSetKey(canon []byte) string
	// EpochVector appends the per-shard epochs of the view queries
	// currently run against to dst (capacity reused, contents
	// discarded); cached results are stale as soon as any component
	// advances past theirs. Components are per-shard monotonic, except
	// that an unobservable shard (its transport failed) reports
	// core.EpochUnknown — the server bypasses the cache entirely for
	// such samples, in both directions.
	EpochVector(dst []uint64) []uint64
	// PartialStats reports queries answered with at least one shard
	// missing, and the total per-shard failures behind them.
	PartialStats() (partialQueries, shardErrors int64)
	// Failovers reports reads a replicated shard answered from a
	// non-first-choice replica after at least one replica failed — the
	// healthy counterpart of PartialStats. Read twice per instrumented
	// request, so it must be cheap.
	Failovers() int64
}

// PartialError comes back from Answer with an answer some shards were
// missing from. The experts returned beside it are exactly what the
// shards that answered rank — usable, but not the whole answer — so
// the server never caches them, and the gateway labels the body
// partial instead of failing the request.
type PartialError struct {
	Missing core.MissingShards
}

// Error names the missing shards.
func (e *PartialError) Error() string {
	return fmt.Sprintf("serve: partial answer, shards %v missing", e.Missing.AppendIndices(nil))
}

// partial is the error a computed answer is returned with: nil when it
// is whole, a *PartialError naming the missing shards otherwise.
func partial(missing core.MissingShards) error {
	if missing == 0 {
		return nil
	}
	return &PartialError{Missing: missing}
}

// Typed request-rejection errors. The gateway maps them onto HTTP
// status codes (400, 400, 503); callers test with errors.Is.
var (
	// ErrEmptyQuery rejects a query that tokenizes to nothing. The
	// AND-match predicate is defined over a non-empty term set
	// (textutil.ContainsAll matches no tweet on zero tokens), so such a
	// request can only ever return an empty result — rejecting it at
	// admission spares a pointless scatter across every shard.
	ErrEmptyQuery = errors.New("serve: empty query")
	// ErrTooManyTerms rejects a query over maxQueryTerms tokens.
	ErrTooManyTerms = errors.New("serve: too many query terms")
	// ErrOverloaded sheds a cold cache miss under overload
	// (Config.MaxInflightMisses); warm hits are never shed.
	ErrOverloaded = errors.New("serve: overloaded, cold query shed")
)

// Config tunes a Server.
type Config struct {
	// CacheSize is the maximum number of cached query results. Zero
	// disables caching entirely (in-flight coalescing still applies).
	CacheSize int
	// Obs, when non-nil, attaches the server to a metrics registry: the
	// request-latency histogram serve_request_ns, read-callback mirrors
	// of every Stats counter (serve_queries, serve_cache_hits,
	// serve_cache_misses, serve_coalesced, serve_invalidations,
	// serve_uncacheable, serve_cache_entries), and a slow-query ring
	// reachable through SlowLog. Nil keeps the request path free of
	// clock reads and trace assembly — the counters in Stats are always
	// maintained either way.
	Obs *obs.Registry
	// MaxInflightMisses, when positive, bounds concurrent detector
	// computations: a cold miss that would start one beyond the bound
	// is shed with ErrOverloaded instead of queueing. Warm cache hits
	// and coalescing followers are never shed, so an overloaded server
	// degrades to a read-only cache. Zero disables shedding.
	MaxInflightMisses int
}

// DefaultConfig returns the serving defaults.
func DefaultConfig() Config { return Config{CacheSize: 4096} }

const (
	// maxQueryTerms caps the number of tokens a query may carry; longer
	// queries are rejected with ErrTooManyTerms, empty ones with
	// ErrEmptyQuery.
	maxQueryTerms = 64
	// slowLogSize bounds the slow-query ring of an instrumented server,
	// which keeps every request.
	slowLogSize = 64
)

// Stats is a snapshot of the server's counters.
type Stats struct {
	// Queries is the total number of requests served.
	Queries int64
	// CacheHits and CacheMisses split the admitted portion of Queries
	// by outcome: a miss ran the detector (or aborted waiting to), a
	// hit did not (served from cache or coalesced onto another
	// request's computation). CacheHits + CacheMisses + Shed + Rejected
	// always sums to Queries.
	CacheHits, CacheMisses int64
	// Shed counts cold misses refused with ErrOverloaded under
	// Config.MaxInflightMisses; Rejected counts degenerate queries
	// refused before the cache (ErrEmptyQuery, ErrTooManyTerms).
	Shed, Rejected int64
	// Coalesced counts the subset of CacheHits that waited on an
	// in-flight identical request instead of reading a stored entry.
	Coalesced int64
	// Invalidations counts cached results dropped — their slots emptied —
	// because the backend's epoch moved past the result's (live
	// ingestion made them stale).
	Invalidations int64
	// CacheEntries is the current number of cache slots — keys the LRU
	// holds, at most Config.CacheSize. A slot whose result an epoch move
	// invalidated stays (emptied) until it is refilled or evicted, and
	// one whose result is stale but not yet looked up cannot be told
	// from a fresh one, so this bounds the cached results from above.
	CacheEntries int
	// EpochVector is the backend's current per-shard epoch vector. A
	// core.EpochUnknown component means that shard's transport is
	// failing right now. Epoch is its scalar digest, the component sum.
	Epoch       uint64
	EpochVector []uint64
	// Uncacheable counts requests served around the cache because the
	// epoch-vector sample contained an unknown component (a shard's
	// transport failed mid-sample): such a view can neither be trusted
	// against cached entries nor admit new ones.
	Uncacheable int64
	// PartialResults and ShardErrors mirror the backend's fail-fast
	// degradation counters: queries answered with at least one shard
	// missing, and the per-shard failures behind them.
	PartialResults, ShardErrors int64
	// Failovers mirrors the backend's replicated-read counter: reads a
	// replicated shard answered from a non-first-choice replica after a
	// replica failure — degradation *avoided*, where PartialResults
	// counts degradation suffered. Zero without replicated shards.
	Failovers int64
}

// slot is one LRU cell. It outlives its contents: an epoch move empties
// it (res = nil) and the next computation under the key refills it, so
// the map cell and the list links of a key that keeps being asked for
// are built once.
type slot struct {
	key string
	res *result
}

// result is one backend computation. While it runs it is the flight
// that identical requests wait on; if it completes, it becomes the
// content of its key's cache slot, immutable from then on apart from
// the once-built bytes — so a hit reads it outside s.mu, and a refresh
// replaces it instead of mutating it under a reader. A flight that no
// slot kept and no follower joined is reachable from its leader alone,
// which copies its answer out and then resets it into Server.flights.
type result struct {
	// epochVec is the view sampled before computing, held in vec when
	// it fits (up to four shards).
	epochVec []uint64
	vec      [4]uint64
	// experts, missing and err are written once by the leader, before
	// it takes s.mu to publish the result and release the waiters.
	experts []expertise.Expert
	missing core.MissingShards
	err     error
	// done is what followers wait on: made under s.mu by the first of
	// them, closed by the leader once the result is published. A
	// channel (not a WaitGroup) so a follower can stop waiting when its
	// own context expires first; nil for the common flight nobody
	// joined.
	done chan struct{}
	// budget is the context the leader computes under when its request
	// has a deadline — a field, so it costs a miss no allocation of its
	// own — and holds nothing of the request once the miss returns.
	budget budget

	encodeOnce sync.Once
	encoded    []byte
}

// json returns json.Marshal of the result's experts ("[]" for none),
// encoding on the first call only. Built by the first hit rather than
// at insert because most results of a churning cache are invalidated
// before anything hits them: marshalling on the miss path costs one
// body-sized allocation per miss (+6.2% alloc_kb_per_query on bench's
// cold_heap) to save one encode per result that does get hit. nil if
// the ranking cannot be encoded (a non-finite score).
func (r *result) json() []byte {
	r.encodeOnce.Do(func() {
		if len(r.experts) == 0 {
			r.encoded = []byte("[]")
			return
		}
		r.encoded, _ = json.Marshal(r.experts) // nil on error: the caller encodes and reports it
	})
	return r.encoded
}

// Server answers concurrent expert-search requests over a shared
// backend. All methods are safe for concurrent use.
type Server struct {
	backend Backend
	cfg     Config
	// scratch recycles each request's admission buffers — the epoch
	// vector sample and the canonical query — so the hot path stays
	// allocation-free once warm.
	scratch sync.Pool // of *admission
	// flights recycles the results no slot kept and no follower joined.
	flights sync.Pool // of *result

	queries, hits, misses    atomic.Int64
	coalesced, invalidations atomic.Int64
	uncacheable              atomic.Int64
	shed, rejected           atomic.Int64

	// Observability (nil without Config.Obs): end-to-end latency
	// histogram and the slow-query ring. The Stats counters above are
	// mirrored into the registry by read callbacks, so instrumentation
	// adds no second accounting on the request path.
	obsOn    bool
	obsReqNS *obs.Histogram
	slow     *obs.SlowLog

	// mu guards the LRU structures and the in-flight table; detector
	// calls run outside the lock. Both are keyed on the term set an e#
	// search matches (Backend.TermSetKey): every permutation and
	// repetition of a query, and every query of a domain small enough to
	// expand to all of itself, shares one key.
	mu       sync.Mutex
	order    *list.List // front = most recently used; values are *slot
	slots    map[string]*list.Element
	inflight map[string]*result
}

// New wires a server over a backend.
func New(b Backend, cfg Config) *Server {
	s := &Server{backend: b, cfg: cfg, inflight: make(map[string]*result)}
	s.scratch.New = func() any { return new(admission) }
	s.flights.New = func() any { return new(result) }
	if cfg.CacheSize > 0 {
		s.order = list.New()
		s.slots = make(map[string]*list.Element, cfg.CacheSize)
	}
	if cfg.Obs != nil {
		s.obsOn = true
		s.obsReqNS = cfg.Obs.Histogram("serve_request_ns")
		s.slow = obs.NewSlowLog(slowLogSize)
		cfg.Obs.RegisterFunc("serve_queries", s.queries.Load)
		cfg.Obs.RegisterFunc("serve_cache_hits", s.hits.Load)
		cfg.Obs.RegisterFunc("serve_cache_misses", s.misses.Load)
		cfg.Obs.RegisterFunc("serve_coalesced", s.coalesced.Load)
		cfg.Obs.RegisterFunc("serve_invalidations", s.invalidations.Load)
		cfg.Obs.RegisterFunc("serve_uncacheable", s.uncacheable.Load)
		cfg.Obs.RegisterFunc("serve_shed", s.shed.Load)
		cfg.Obs.RegisterFunc("serve_rejected", s.rejected.Load)
		cfg.Obs.RegisterFunc("serve_cache_entries", func() int64 {
			if s.slots == nil {
				return 0
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(s.order.Len())
		})
	}
	return s
}

// admission is one request's pooled scratch.
type admission struct {
	vec   []uint64 // the epoch-vector sample
	canon []byte   // the canonical query, valid until TermSetKey returns
}

// SlowLog returns the slow-query ring, nil when the server was built
// without Config.Obs.
func (s *Server) SlowLog() *obs.SlowLog { return s.slow }

// Search answers one e# query. The returned slice may be shared with
// the cache and other callers — treat it as read-only. Degenerate
// queries return nil (use Answer for the typed error).
func (s *Server) Search(query string) []expertise.Expert {
	experts, _, _ := s.serve(context.Background(), query, time.Time{}, nil)
	return experts
}

// Answer is the entry point a network front end calls: one e# query
// under the caller's context and latency budget. Admission failures
// surface as ErrEmptyQuery / ErrTooManyTerms / ErrOverloaded, an
// expired budget as the context's error.
//
// deadline, when non-zero, is the instant the budget runs out. It is
// attached to ctx only once the request has missed the cache — before
// it waits on an identical in-flight computation or runs the backend,
// where it rides down the scatter-gather into per-shard RPC deadlines —
// so a warm hit never builds a context.
//
// buf, when non-nil, is the caller's ranking buffer: a miss whose
// ranking no cache slot kept and no follower shares is copied into *buf
// (grown as needed) and returned from there, and the backend's own goes
// back through Backend.Recycle. A caller that passes nil keeps the
// ranking it is returned.
//
// encoded, non-nil only when a stored cache entry answered, is
// json.Marshal of experts ("[]" for none), encoded by the entry's first
// hit and shared by every later one. A miss, a coalesced follower and a
// cache-less server return none: the caller encodes those itself. Both
// results may be shared with the cache and other callers, or be *buf
// — treat them as read-only.
//
// An answer computed with some shard missing comes back with its
// experts and a bare *PartialError naming the missing shards. It was
// not cached, so no later request is served it as whole.
func (s *Server) Answer(ctx context.Context, query string, deadline time.Time, buf *[]expertise.Expert) (experts []expertise.Expert, encoded []byte, err error) {
	experts, hit, err := s.serve(ctx, query, deadline, buf)
	if hit != nil {
		encoded = hit.json()
	}
	return experts, encoded, err
}

// serve wraps the request path in the instrumentation Config.Obs asks
// for. hit is the stored entry that answered, nil for every other
// outcome.
func (s *Server) serve(ctx context.Context, query string, deadline time.Time, buf *[]expertise.Expert) (experts []expertise.Expert, hit *result, err error) {
	if !s.obsOn {
		return s.serveTraced(ctx, query, deadline, buf, nil)
	}
	// Instrumented path: time the request end to end (one clock read
	// serves both the trace's start and the latency), capture the
	// outcome and (for misses against an instrumented backend) the
	// per-shard spans, and offer the trace to the slow-query ring.
	start := time.Now()
	qt := obs.QueryTrace{Start: start}
	failovers0 := s.backend.Failovers()
	experts, hit, err = s.serveTraced(ctx, query, deadline, buf, &qt)
	qt.TotalNS = time.Since(start).Nanoseconds()
	// Best-effort under concurrency: the delta of the backend's
	// cumulative counter across this request.
	qt.Failovers = s.backend.Failovers() - failovers0
	s.obsReqNS.Observe(qt.TotalNS)
	s.slow.Record(qt)
	return experts, hit, err
}

// serveTraced is the request path up to and including the warm hit:
// admission, the view sample and one cache lookup. qt, non-nil only on
// the instrumented path, receives the normalized query, the cache
// outcome and the detector-side trace fields.
func (s *Server) serveTraced(ctx context.Context, query string, deadline time.Time, buf *[]expertise.Expert, qt *obs.QueryTrace) ([]expertise.Expert, *result, error) {
	s.queries.Add(1)
	// Admission: normalize once, reject degenerate queries before any
	// cache work, then resolve what the answer is a function of. The
	// backend receives the normalized (order-kept) text; the cache keys
	// on the term set the canonical token set expands to, so
	// permutations and repetitions of one query, and the queries of one
	// domain that search the same terms, share a slot and a flight. A
	// query that arrives in normal form — the common case — is admitted
	// without allocating: Normalize hands it back, its canonical form is
	// built in pooled scratch, and the key is the backend table's own
	// string, or norm for a query outside the table whose tokens arrive
	// in order. A normal form is its tokens joined by single spaces, so
	// the spaces count them.
	norm := textutil.Normalize(query)
	if norm == "" {
		s.rejected.Add(1)
		if qt != nil {
			qt.Outcome = obs.OutcomeRejected
		}
		return nil, nil, ErrEmptyQuery
	}
	if strings.Count(norm, " ") >= maxQueryTerms {
		s.rejected.Add(1)
		if qt != nil {
			qt.Query = norm
			qt.Outcome = obs.OutcomeRejected
		}
		return nil, nil, ErrTooManyTerms
	}
	sc := s.scratch.Get().(*admission)
	defer s.scratch.Put(sc)
	sc.canon = textutil.AppendCanonical(sc.canon[:0], norm)
	key := s.backend.TermSetKey(sc.canon)
	if key == "" {
		// A query outside every domain keys on its canonical form: norm
		// itself when its tokens arrived in order, else a copy.
		key = norm
		if string(sc.canon) != norm {
			key = string(sc.canon)
		}
	}
	if qt != nil {
		qt.Query = norm
		qt.TermSet = key
	}
	// Sample the view identity before any cache decision: the full
	// per-shard epoch vector, into the pooled scratch.
	sc.vec = s.backend.EpochVector(sc.vec[:0])
	evec := sc.vec
	// A sample with an unknown component (a shard's transport failed
	// mid-sample) identifies no view at all: it can neither be compared
	// against cached entries nor tag a new one, so this request goes
	// around the cache in both directions. In-flight coalescing still
	// applies — identical degraded requests share one computation.
	uncacheable := false
	for _, e := range evec {
		if e == core.EpochUnknown {
			uncacheable = true
			s.uncacheable.Add(1)
			break
		}
	}
	if !uncacheable {
		s.mu.Lock()
		res := s.lookupLocked(key, evec)
		s.mu.Unlock()
		if res != nil {
			s.countHit(qt)
			return res.experts, res, nil
		}
	}
	return s.miss(ctx, deadline, key, norm, evec, uncacheable, buf, qt)
}

func (s *Server) countHit(qt *obs.QueryTrace) {
	s.hits.Add(1)
	if qt != nil {
		qt.Outcome = obs.OutcomeHit
	}
}

// miss is the request path once the first lookup has failed. From here
// the request may wait — as a follower on an identical in-flight
// computation or as the leader on the backend — so this is where its
// budget is armed: a follower's in follow, a leader's in its flight.
// A leader's ranking that nothing else holds goes into buf (see Answer).
func (s *Server) miss(ctx context.Context, deadline time.Time, key string, norm string, evec []uint64, uncacheable bool, buf *[]expertise.Expert, qt *obs.QueryTrace) (experts []expertise.Expert, hit *result, err error) {
	for {
		s.mu.Lock()
		if !uncacheable {
			// Again, under the lock that reads the in-flight table: the
			// leader this request would have followed may have finished
			// and cached since the first look.
			if res := s.lookupLocked(key, evec); res != nil {
				s.mu.Unlock()
				s.countHit(qt)
				return res.experts, res, nil
			}
		}
		prev := s.inflight[key]
		if prev == nil {
			break
		}
		// A request for the same answer is already computing: coalesce
		// onto it — unless this request's own deadline fires first. The
		// follower observes the view the leader started under — standard
		// singleflight semantics. Only a flight somebody joins pays for
		// a channel.
		if prev.done == nil {
			prev.done = make(chan struct{})
		}
		s.mu.Unlock()
		if err := follow(ctx, deadline, prev.done); err != nil {
			// Counted as a miss: the caller got no result, so "hit"
			// would overstate cache efficacy. Keeps the invariant
			// queries = hits + misses + shed + rejected.
			s.misses.Add(1)
			if qt != nil {
				qt.Outcome = obs.OutcomeMiss
			}
			return nil, nil, err
		}
		if prev.err == nil {
			s.hits.Add(1)
			s.coalesced.Add(1)
			if qt != nil {
				qt.Outcome = obs.OutcomeCoalesced
			}
			return prev.experts, nil, partial(prev.missing)
		}
		// The leader failed — typically its own budget expired, which
		// says nothing about this request's. Loop and try again as
		// leader (or onto a fresher flight) under our own context.
	}
	// Cold miss. Under overload, shed it rather than queue detector
	// work: warm hits above are always answered, so a saturated server
	// degrades to a read-only cache.
	if s.cfg.MaxInflightMisses > 0 && len(s.inflight) >= s.cfg.MaxInflightMisses {
		s.mu.Unlock()
		s.shed.Add(1)
		if qt != nil {
			qt.Outcome = obs.OutcomeShed
		}
		return nil, nil, ErrOverloaded
	}
	// The one allocation of a refill: the result is the flight now and
	// the slot's content later, and holds the leader's budget. It is
	// tagged with the vector sampled before computing: if the index
	// moves mid-flight, the result is conservatively already stale and
	// the next lookup recomputes against the new view. A recycled flight
	// costs nothing.
	f := s.flights.Get().(*result)
	f.epochVec = append(f.vec[:0], evec...)
	s.inflight[key] = f
	s.mu.Unlock()

	s.misses.Add(1)
	// Deregister and release the waiters even if the backend panics —
	// otherwise the key would block every future request forever. Only
	// a completed, error-free, whole computation is cached; a panic, a
	// deadline expiry or a missing shard caches nothing. A partial
	// answer's epoch vector can stay valid after the shard heals — a
	// replica set's epoch is a local write counter — so a cached one
	// would be served as whole until the next write.
	//
	// A flight no slot kept and no follower joined is recycled: with it
	// out of the in-flight table under s.mu and done still nil, no
	// follower can reach it any more, and the return values were copied
	// out before this runs. Below serve the flight's budget is only read
	// (Err, Deadline) during the call, so nothing else holds it either.
	completed := false
	defer func() {
		s.mu.Lock()
		kept := completed && !uncacheable && f.err == nil && f.missing == 0 && s.insertLocked(key, f)
		delete(s.inflight, key)
		done := f.done
		s.mu.Unlock()
		if done != nil {
			close(done)
			return
		}
		if kept {
			return
		}
		if buf != nil {
			*buf = append((*buf)[:0], f.experts...)
			experts = *buf
			s.backend.Recycle(f.experts)
		}
		*f = result{}
		s.flights.Put(f)
	}()
	if !deadline.IsZero() {
		// Deferred after the publish above, so it runs before it: the
		// result is cached and its waiters woken with the budget
		// already released.
		f.budget.parent, f.budget.deadline = ctx, deadline
		defer f.budget.release()
		ctx = &f.budget
	}
	if qt != nil {
		if uncacheable {
			qt.Outcome = obs.OutcomeUncacheable
		} else {
			qt.Outcome = obs.OutcomeMiss
		}
	}
	var tr core.SearchTrace
	f.experts, tr, f.err = s.backend.SearchContext(ctx, norm)
	f.missing = tr.Missing
	if qt != nil {
		qt.MatchedTweets = tr.MatchedTweets
		qt.MergeRankNS = tr.MergeRankNS
		qt.Shards = tr.Shards
	}
	completed = true
	if f.err != nil {
		return f.experts, nil, f.err
	}
	return f.experts, nil, partial(f.missing)
}

// follow waits for the flight whose done channel is done, unless the
// request's context ends or its deadline passes first, and returns
// that error. A follower always waits on its deadline, so it is a
// plain context.WithDeadline.
func follow(ctx context.Context, deadline time.Time, done <-chan struct{}) error {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// budget is the context a leader computes under when its request has
// a deadline: the request's context, so a client hang-up still cancels,
// and the deadline as a value. The miss path only reads Err and
// Deadline, so no timer is armed — context.WithDeadline costs 7
// allocations under net/http's request context, a budget none beyond
// its flight's — until something waits on Done. release drops the
// request's context along with the timer, so a cached result does not
// keep the request reachable; every method reads the parent under mu
// for that reason.
type budget struct {
	mu       sync.Mutex
	parent   context.Context // the request's; nil once released
	deadline time.Time
	armed    context.Context // built by the first Done; nil once released
	cancel   context.CancelFunc
}

// releasedDone is the Done channel of a released budget.
var releasedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// request is the request's context, nil once released.
func (b *budget) request() context.Context {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.parent
}

// Deadline is the earlier of the request's deadline and the budget's.
func (b *budget) Deadline() (time.Time, bool) {
	if parent := b.request(); parent != nil {
		if d, ok := parent.Deadline(); ok && d.Before(b.deadline) {
			return d, true
		}
	}
	return b.deadline, true
}

// Err is Canceled once released, else the request's error, else
// DeadlineExceeded once the clock reaches the deadline.
func (b *budget) Err() error {
	parent := b.request()
	if parent == nil {
		return context.Canceled
	}
	if err := parent.Err(); err != nil {
		return err
	}
	if !time.Now().Before(b.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// Value is the request's value for key; nil once released.
func (b *budget) Value(key any) any {
	if parent := b.request(); parent != nil {
		return parent.Value(key)
	}
	return nil
}

// Done returns a channel that closes at the deadline, on the request's
// cancellation or on release; the first call arms its timer.
func (b *budget) Done() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.armed == nil {
		if b.parent == nil {
			return releasedDone
		}
		b.armed, b.cancel = context.WithDeadline(b.parent, b.deadline)
	}
	return b.armed.Done()
}

// release ends the budget, stops a timer Done armed and drops every
// reference to the request; it is idempotent.
func (b *budget) release() {
	b.mu.Lock()
	if b.cancel != nil {
		b.cancel()
	}
	b.parent, b.armed, b.cancel = nil, nil, nil
	b.mu.Unlock()
}

// staleVec reports whether an entry tagged with vector entryVec is
// stale against the request's sample: stale as soon as any component
// advanced past the entry's. Components an entry is *ahead* on (a
// concurrent request cached it after an ingest) do not count against
// it — serving it is a per-component monotonic step forward, not a
// stale read. A length mismatch — a sample of a different shard set —
// is conservatively stale.
func staleVec(entryVec, sample []uint64) bool {
	if len(entryVec) != len(sample) {
		return true
	}
	for i, e := range entryVec {
		if e < sample[i] {
			return true
		}
	}
	return false
}

// lookupLocked fetches the result cached under key and marks its slot
// most recently used; nil when there is none (or no cache). A result
// from an older view — any vector component behind — is dropped: the
// live index has moved on, so serving it would return pre-ingest
// results. The slot stays, emptied, for the refill that follows.
func (s *Server) lookupLocked(key string, evec []uint64) *result {
	el, ok := s.slots[key]
	if !ok {
		return nil
	}
	sl := el.Value.(*slot)
	if sl.res == nil {
		return nil
	}
	if staleVec(sl.res.epochVec, evec) {
		sl.res = nil
		s.invalidations.Add(1)
		return nil
	}
	s.order.MoveToFront(el)
	return sl.res
}

// insertLocked stores a completed result under key, in the key's slot
// if it has one — emptied by an invalidation, or holding a result a
// concurrent leader cached; a hit may still be reading that one outside
// the lock, so it is replaced, never written to — and otherwise in a
// new slot, evicting the least recently used one when the cache is
// full. It reports whether a slot kept res: false only without a cache.
func (s *Server) insertLocked(key string, res *result) bool {
	if s.slots == nil {
		return false
	}
	if el, ok := s.slots[key]; ok {
		el.Value.(*slot).res = res
		s.order.MoveToFront(el)
		return true
	}
	s.slots[key] = s.order.PushFront(&slot{key: key, res: res})
	if s.order.Len() > s.cfg.CacheSize {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.slots, oldest.Value.(*slot).key)
	}
	return true
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Queries:       s.queries.Load(),
		CacheHits:     s.hits.Load(),
		CacheMisses:   s.misses.Load(),
		Coalesced:     s.coalesced.Load(),
		Invalidations: s.invalidations.Load(),
		Uncacheable:   s.uncacheable.Load(),
		Shed:          s.shed.Load(),
		Rejected:      s.rejected.Load(),
		EpochVector:   s.backend.EpochVector(nil),
		Failovers:     s.backend.Failovers(),
	}
	for _, e := range st.EpochVector {
		st.Epoch += e
	}
	st.PartialResults, st.ShardErrors = s.backend.PartialStats()
	if s.slots != nil {
		s.mu.Lock()
		st.CacheEntries = s.order.Len()
		s.mu.Unlock()
	}
	return st
}
