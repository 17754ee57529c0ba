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
// A Server multiplexes concurrent Search and SearchBaseline requests
// over one Backend and fronts them with an LRU result cache keyed on
// what determines the answer. e# expands a query to the members of its
// expertise domain and ranks the union of their matches once, so the
// answer is a function of the expanded term set, not of the query
// string: at admission the server canonicalizes the query — lower-cased
// tokens, sorted and de-duplicated, under which the AND-match predicate
// and domain lookup (domains.Collection.Lookup) are both invariant —
// and asks the backend for the key of the term set that canonical query
// expands to (Backend.TermSetKey: a table lookup, no I/O, no
// allocation). "go rust", "rust go" and "go go rust" are one key, and
// so is every member query of a domain small enough to expand to all of
// itself: they share a cache slot and coalesce onto a single in-flight
// computation, and a write invalidates their answer once, not once per
// spelling. The baseline endpoint does not expand — its term set is the
// query — and keys on the canonical query alone. Which match rule
// produced a term set is the detector's business (see
// core.OnlineConfig.Match); the backend still receives the normalized,
// order-preserving text.
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
// joins has none. LRU eviction bounds the slots, filled or emptied, at
// Config.CacheSize, which is what Stats.CacheEntries counts. Three
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
//     Config.MaxQueryTerms tokens) are rejected with a typed error
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
// (the gateway maps it to 504) — so a warm hit builds no context. A
// hit also returns the ranking's JSON: a cached result is immutable
// after insert and carries json.Marshal of its experts, encoded by its
// first hit, once, outside the lock; a miss encodes nothing.
//
// Build detectors with core.OnlineConfig.MatchWorkers = 1 when serving
// concurrently: request-level parallelism already saturates the cores.
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
	"repro/internal/shard"
	"repro/internal/textutil"
)

// Backend is the query engine a Server fronts — exactly the calls it
// makes. core.ShardedLiveDetector is the implementation; tests
// substitute stubs.
type Backend interface {
	// SearchContext and SearchBaselineContext run one e# or baseline
	// query under the caller's deadline; the sharded detector threads
	// the context down its scatter-gather into per-shard RPC deadlines.
	// An answer some shards were missing from names them
	// (SearchTrace.Missing): the server never caches it.
	SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error)
	// SearchBaselineContext is the unexpanded Pal & Counts twin of
	// SearchContext: the query's own matches, ranked the same way, and
	// the shards missing from them.
	SearchBaselineContext(ctx context.Context, query string) ([]expertise.Expert, core.MissingShards, error)
	// TermSetKey returns the identity of the term set an e# search for
	// the query with canonical form canon (tokens sorted, de-duplicated,
	// single-spaced) matches: queries with equal keys have the same
	// answer at the same view, and the server caches and coalesces them
	// as one. A backend with no closed table of term sets returns canon.
	TermSetKey(canon string) string
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
	// ReshardStats returns the attached live-resharding migration's
	// progress snapshot; ok is false when no migration is attached.
	ReshardStats() (st shard.MigrationStats, ok bool)
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
	// ErrTooManyTerms rejects a query over Config.MaxQueryTerms tokens.
	ErrTooManyTerms = errors.New("serve: too many query terms")
	// ErrOverloaded sheds a cold cache miss under overload
	// (Config.MaxInflightMisses); warm hits are never shed.
	ErrOverloaded = errors.New("serve: overloaded, cold query shed")
)

// Config tunes a Server.
type Config struct {
	// CacheSize is the maximum number of cached query results across
	// both endpoints. Zero disables caching entirely (in-flight
	// coalescing still applies).
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
	// SlowLogSize bounds the slow-query ring (default 64 when Obs is
	// set); SlowLogThreshold is the minimum end-to-end latency a kept
	// trace has (zero keeps every request, useful in tests and demos).
	SlowLogSize      int
	SlowLogThreshold time.Duration
	// MaxQueryTerms caps the number of tokens a query may carry;
	// longer queries are rejected with ErrTooManyTerms. Zero means
	// unlimited. Empty queries are always rejected (ErrEmptyQuery).
	MaxQueryTerms int
	// MaxInflightMisses, when positive, bounds concurrent detector
	// computations: a cold miss that would start one beyond the bound
	// is shed with ErrOverloaded instead of queueing. Warm cache hits
	// and coalescing followers are never shed, so an overloaded server
	// degrades to a read-only cache. Zero disables shedding.
	MaxInflightMisses int
}

// DefaultConfig returns the serving defaults.
func DefaultConfig() Config { return Config{CacheSize: 4096, MaxQueryTerms: 64} }

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
	// Reshard is the live-resharding progress snapshot of the
	// backend's attached migration; nil when none is attached.
	Reshard *shard.MigrationStats
}

// cacheKey names one answer: the term set an e# search matches
// (Backend.TermSetKey — every query of an expertise domain small enough
// to expand to all of itself shares one), or, for the baseline endpoint,
// the canonical query — the sorted, de-duplicated token set, under which
// both the AND-match predicate and domain lookup are invariant. Either
// way every permutation and repetition of a query shares one key.
type cacheKey struct {
	query    string
	baseline bool
}

// slot is one LRU cell. It outlives its contents: an epoch move empties
// it (res = nil) and the next computation under the key refills it, so
// the map cell and the list links of a key that keeps being asked for
// are built once.
type slot struct {
	key cacheKey
	res *result
}

// result is one backend computation. While it runs it is the flight
// that identical requests wait on; if it completes, it becomes the
// content of its key's cache slot, immutable from then on apart from
// the once-built bytes — so a hit reads it outside s.mu, and a refresh
// replaces it instead of mutating it under a reader.
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
	// vecPool recycles the per-request epoch-vector sample buffers so
	// the hot path stays allocation-free once warm.
	vecPool sync.Pool // of *[]uint64

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
	// calls run outside the lock.
	mu       sync.Mutex
	order    *list.List // front = most recently used; values are *slot
	slots    map[cacheKey]*list.Element
	inflight map[cacheKey]*result
}

// New wires a server over a backend.
func New(b Backend, cfg Config) *Server {
	s := &Server{backend: b, cfg: cfg, inflight: make(map[cacheKey]*result)}
	s.vecPool.New = func() any { return new([]uint64) }
	if cfg.CacheSize > 0 {
		s.order = list.New()
		s.slots = make(map[cacheKey]*list.Element, cfg.CacheSize)
	}
	if cfg.Obs != nil {
		s.obsOn = true
		s.obsReqNS = cfg.Obs.Histogram("serve_request_ns")
		size := cfg.SlowLogSize
		if size <= 0 {
			size = 64
		}
		s.slow = obs.NewSlowLog(size, cfg.SlowLogThreshold)
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

// SlowLog returns the slow-query ring, nil when the server was built
// without Config.Obs.
func (s *Server) SlowLog() *obs.SlowLog { return s.slow }

// Search answers one e# query. The returned slice may be shared with
// the cache and other callers — treat it as read-only. Degenerate
// queries return nil (use Answer for the typed error).
func (s *Server) Search(query string) []expertise.Expert {
	experts, _, _ := s.serve(context.Background(), query, false, time.Time{})
	return experts
}

// SearchBaseline answers one unexpanded Pal & Counts baseline query.
// The returned slice may be shared — treat it as read-only.
func (s *Server) SearchBaseline(query string) []expertise.Expert {
	experts, _, _ := s.serve(context.Background(), query, true, time.Time{})
	return experts
}

// Answer is the entry point a network front end calls: one e# (or,
// with baseline, unexpanded Pal & Counts) query under the caller's
// context and latency budget. Admission failures surface as
// ErrEmptyQuery / ErrTooManyTerms / ErrOverloaded, an expired budget as
// the context's error.
//
// deadline, when non-zero, is the instant the budget runs out. It is
// attached to ctx only once the request has missed the cache — before
// it waits on an identical in-flight computation or runs the backend,
// where it rides down the scatter-gather into per-shard RPC deadlines —
// so a warm hit never builds a context.
//
// encoded, non-nil only when a stored cache entry answered, is
// json.Marshal of experts ("[]" for none), encoded by the entry's first
// hit and shared by every later one. A miss, a coalesced follower and a
// cache-less server return none: the caller encodes those itself. Both
// results may be shared with the cache and other callers — treat them
// as read-only.
//
// An answer computed with some shard missing comes back with its
// experts and a bare *PartialError naming the missing shards. It was
// not cached, so no later request is served it as whole.
func (s *Server) Answer(ctx context.Context, query string, baseline bool, deadline time.Time) (experts []expertise.Expert, encoded []byte, err error) {
	experts, hit, err := s.serve(ctx, query, baseline, deadline)
	if hit != nil {
		encoded = hit.json()
	}
	return experts, encoded, err
}

// serve wraps the request path in the instrumentation Config.Obs asks
// for. hit is the stored entry that answered, nil for every other
// outcome.
func (s *Server) serve(ctx context.Context, query string, baseline bool, deadline time.Time) (experts []expertise.Expert, hit *result, err error) {
	if !s.obsOn {
		return s.serveTraced(ctx, query, baseline, deadline, nil)
	}
	// Instrumented path: time the request end to end (one clock read
	// serves both the trace's start and the latency), capture the
	// outcome and (for misses against an instrumented backend) the
	// per-shard spans, and offer the trace to the slow-query ring.
	start := time.Now()
	qt := obs.QueryTrace{Baseline: baseline, Start: start}
	failovers0 := s.backend.Failovers()
	experts, hit, err = s.serveTraced(ctx, query, baseline, deadline, &qt)
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
func (s *Server) serveTraced(ctx context.Context, query string, baseline bool, deadline time.Time, qt *obs.QueryTrace) ([]expertise.Expert, *result, error) {
	s.queries.Add(1)
	// Admission: normalize and tokenize once, reject degenerate queries
	// before any cache work, then resolve what the answer is a function
	// of. The backend receives the normalized (order-kept) text; the
	// cache keys on the term set the canonical token set expands to, so
	// permutations and repetitions of one query, and the queries of one
	// domain that search the same terms, share a slot and a flight. A
	// query that arrives in normal form — the common case — is admitted
	// without allocating: Normalize hands it back, its tokens are
	// substrings cut into a stack array, and the key is the backend
	// table's own string.
	norm := textutil.Normalize(query)
	var tokArr [8]string
	toks := textutil.TokenizeAppend(tokArr[:0], norm)
	if len(toks) == 0 {
		s.rejected.Add(1)
		if qt != nil {
			qt.Outcome = obs.OutcomeRejected
		}
		return nil, nil, ErrEmptyQuery
	}
	if s.cfg.MaxQueryTerms > 0 && len(toks) > s.cfg.MaxQueryTerms {
		s.rejected.Add(1)
		if qt != nil {
			qt.Query = norm
			qt.Outcome = obs.OutcomeRejected
		}
		return nil, nil, ErrTooManyTerms
	}
	canon := norm
	if !textutil.TokensCanonical(toks) {
		// CanonicalTokens sorts in place; norm is already materialized.
		canon = strings.Join(textutil.CanonicalTokens(toks), " ")
	}
	key := cacheKey{query: canon, baseline: baseline}
	if !baseline {
		// The baseline does not expand: its term set is the query.
		key.query = s.backend.TermSetKey(canon)
	}
	if qt != nil {
		qt.Query = norm
		qt.TermSet = key.query
	}
	// Sample the view identity before any cache decision: the full
	// per-shard epoch vector, into a pooled buffer.
	buf := s.vecPool.Get().(*[]uint64)
	*buf = s.backend.EpochVector((*buf)[:0])
	evec := *buf
	defer s.vecPool.Put(buf)
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
	return s.miss(ctx, deadline, key, norm, evec, uncacheable, qt)
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
// budget is armed.
func (s *Server) miss(ctx context.Context, deadline time.Time, key cacheKey, norm string, evec []uint64, uncacheable bool, qt *obs.QueryTrace) ([]expertise.Expert, *result, error) {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
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
		select {
		case <-prev.done:
		case <-ctx.Done():
			// Counted as a miss: the caller got no result, so "hit"
			// would overstate cache efficacy. Keeps the invariant
			// queries = hits + misses + shed + rejected.
			s.misses.Add(1)
			if qt != nil {
				qt.Outcome = obs.OutcomeMiss
			}
			return nil, nil, ctx.Err()
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
	// the slot's content later. It is tagged with the vector sampled
	// before computing: if the index moves mid-flight, the result is
	// conservatively already stale and the next lookup recomputes
	// against the new view.
	f := &result{}
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
	completed := false
	defer func() {
		s.mu.Lock()
		if completed && !uncacheable && f.err == nil && f.missing == 0 {
			s.insertLocked(key, f)
		}
		delete(s.inflight, key)
		done := f.done
		s.mu.Unlock()
		if done != nil {
			close(done)
		}
	}()
	if qt != nil {
		if uncacheable {
			qt.Outcome = obs.OutcomeUncacheable
		} else {
			qt.Outcome = obs.OutcomeMiss
		}
	}
	if key.baseline {
		f.experts, f.missing, f.err = s.backend.SearchBaselineContext(ctx, norm)
	} else {
		var tr core.SearchTrace
		f.experts, tr, f.err = s.backend.SearchContext(ctx, norm)
		f.missing = tr.Missing
		if qt != nil {
			qt.MatchedTweets = tr.MatchedTweets
			qt.MergeRankNS = tr.MergeRankNS
			qt.Shards = tr.Shards
		}
	}
	completed = true
	if f.err != nil {
		return f.experts, nil, f.err
	}
	return f.experts, nil, partial(f.missing)
}

// staleVec reports whether an entry tagged with vector entryVec is
// stale against the request's sample: stale as soon as any component
// advanced past the entry's. Components an entry is *ahead* on (a
// concurrent request cached it after an ingest) do not count against
// it — serving it is a per-component monotonic step forward, not a
// stale read. A length mismatch (resharded backend) is conservatively
// stale.
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
func (s *Server) lookupLocked(key cacheKey, evec []uint64) *result {
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
// full.
func (s *Server) insertLocked(key cacheKey, res *result) {
	if s.slots == nil {
		return
	}
	if el, ok := s.slots[key]; ok {
		el.Value.(*slot).res = res
		s.order.MoveToFront(el)
		return
	}
	s.slots[key] = s.order.PushFront(&slot{key: key, res: res})
	if s.order.Len() > s.cfg.CacheSize {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.slots, oldest.Value.(*slot).key)
	}
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
	if rst, ok := s.backend.ReshardStats(); ok {
		st.Reshard = &rst
	}
	if s.slots != nil {
		s.mu.Lock()
		st.CacheEntries = s.order.Len()
		s.mu.Unlock()
	}
	return st
}
