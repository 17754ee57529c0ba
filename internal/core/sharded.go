package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/domains"
	"repro/internal/expertise"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/textutil"
	"repro/internal/world"
)

// EpochUnknown is the epoch-vector component reported for a shard whose
// epoch cannot be observed (its transport failed). The serving layer
// must treat any vector sample containing it as uncacheable.
const EpochUnknown = shard.EpochUnknown

// ShardedLiveDetector is the served online e# engine — the one read
// path every deployment runs: the same two-phase architecture as the
// cold Detector, as a scatter-gather over a shard.Cluster — an ordered
// shard set whose members are in-process (shard.Local over an
// ingest.Index) or remote (transport.RemoteShard speaking the wire
// protocol) or replicated (replica.Set), in any mix, with this code
// unable to tell the difference. A single streaming index is the
// one-shard cluster (NewLiveDetector) and a frozen corpus a one-shard
// cluster that never ingests. A query fans the scatter stage out across
// the shards — each shard matches every term, unions the tweet ids,
// extracts raw integer candidate rows and reads those candidates'
// denominators against one pinned view — then gathers: numerators
// merge by summation, each shard tops up the denominators of the
// candidates it did not itself surface from the same pinned view, and
// a single global ranking pass produces the top-k. A quiesced N-shard
// cluster ranks bit-identically to a cold Detector over the same
// posts, for any N and any local/remote mix — the equivalence tests of
// every layer enforce this.
//
// Failure policy is fail-fast partial results: a shard whose transport
// errors in either phase contributes nothing to that query (no retry
// inside the query), the answer is exactly what the remaining shards
// alone would rank, the answer names the missing shards
// (SearchTrace.Missing, SearchBaselineContext's MissingShards) so the
// serving layer never caches it nor passes it off as whole, and the
// Partials counters — surfaced through serve.Stats — record the
// degradation.
type ShardedLiveDetector struct {
	collection *domains.Collection
	// admission is the collection's expansion table at this detector's
	// cap, built once at construction; nil unless cfg.Match is
	// MatchExact, the one mode whose expansion can be tabulated.
	admission *domains.Admission
	// cluster is an atomic pointer because live resharding swaps the
	// whole shard set out from under in-flight queries: SwapCluster
	// stores a new cluster (possibly with a different shard count),
	// each query loads the pointer exactly once and runs entirely
	// against that one cluster, and the serving cache tolerates the
	// resulting epoch-vector length change by treating it as
	// conservatively stale.
	cluster atomic.Pointer[shard.Cluster]
	// reshard, when non-nil, is the in-flight migration; the read path
	// reports each query to it so the dual-read window is observable.
	reshard  atomic.Pointer[shard.Migration]
	ranker   *expertise.Ranker
	extended bool
	cfg      OnlineConfig
	scratch  sync.Pool // of *shardedScratch, reused across queries

	partialQueries atomic.Int64
	shardErrors    atomic.Int64

	// Observability (nil without OnlineConfig.Obs): per-shard scatter
	// and gather latency histograms, the global merge+rank histogram,
	// and per-query span collection for the serving layer's slow log.
	// All handles are pre-registered at construction so the query path
	// records with plain atomic adds. The per-shard slices live behind
	// one atomic pointer so SwapCluster can regrow them for a larger
	// cluster while queries are in flight.
	obsOn          bool
	obsShard       atomic.Pointer[shardObsHandles]
	obsMergeRankNS *obs.Histogram
	obsShardErrs   *obs.Counter
	obsReg         *obs.Registry
}

// shardObsHandles is one immutable generation of the per-shard
// histogram handles; handles are get-or-create by name in the
// registry, so regrowing for a swapped-in cluster reuses the existing
// histograms for shard indexes both generations share.
type shardObsHandles struct {
	search []*obs.Histogram
	stats  []*obs.Histogram
}

// shardSlot holds one shard's per-query state: the extracted raw rows,
// the shard's matched-union size, the pinned view, the denominator
// buffers and the first error of either phase. The scatter fills
// ownStats with the denominators of the shard's own candidates (aligned
// with raw); the gather tops up the foreign candidates in topUsers
// into stats.
type shardSlot struct {
	raw      []expertise.RawCandidate
	matched  int
	view     shard.View
	stats    []expertise.UserStats
	ownStats []expertise.UserStats
	topUsers []world.UserID
	err      error
	// searchNS and statsNS time this shard's scatter and gather phases
	// for the current query — written only when the detector is
	// instrumented (obsOn), stale otherwise.
	searchNS int64
	statsNS  int64
}

// shardedScratch is the pooled per-query state of the sharded online
// stage: the term list, one slot per shard, the gather-stage merge
// buffers and the finalized candidate pool.
type shardedScratch struct {
	terms  []string
	shards []shardSlot
	raws   [][]expertise.RawCandidate
	merged []expertise.RawCandidate
	users  []world.UserID
	denoms []expertise.UserStats
	cands  []expertise.Expert
}

// LiveDetector is the served detector over a single streaming index —
// the same type, over a one-shard cluster.
type LiveDetector = ShardedLiveDetector

// NewLiveDetector wires the online stage over one streaming index: a
// one-shard cluster of a shard.Local over idx. Every query runs against
// a single epoch-tagged snapshot acquired with one atomic load, so
// concurrent ingestion, sealing and compaction never perturb it. A
// frozen corpus is served the same way, as ingest.New(corpus, ...)
// with nothing ever ingested.
func NewLiveDetector(coll *domains.Collection, idx *ingest.Index, cfg OnlineConfig) *LiveDetector {
	return NewShardedLiveDetectorOver(coll, shard.NewCluster(idx.World(), shard.NewLocal(idx)), cfg)
}

// NewShardedLiveDetectorOver wires the online stage over an explicit
// shard cluster — local backends, remote backends behind a transport,
// or a mix.
func NewShardedLiveDetectorOver(coll *domains.Collection, c *shard.Cluster, cfg OnlineConfig) *ShardedLiveDetector {
	if cfg.MaxExpansionTerms <= 0 {
		cfg.MaxExpansionTerms = 10
	}
	d := &ShardedLiveDetector{
		collection: coll,
		ranker:     expertise.NewRanker(len(c.World().Users), cfg.Expertise),
		cfg:        cfg,
	}
	if cfg.Match == domains.MatchExact {
		d.admission = coll.Admission(cfg.MaxExpansionTerms)
	}
	d.cluster.Store(c)
	p := d.ranker.Params()
	d.extended = p.WeightHT != 0 || p.WeightAV != 0 || p.WeightGI != 0
	d.scratch.New = func() any { return &shardedScratch{} }
	if cfg.Obs != nil {
		d.obsOn = true
		d.obsReg = cfg.Obs
		d.obsShard.Store(shardHandles(cfg.Obs, nil, c.NumShards()))
		d.obsMergeRankNS = cfg.Obs.Histogram("sharded_merge_rank_ns")
		d.obsShardErrs = cfg.Obs.Counter("sharded_shard_errors")
	}
	return d
}

// shardHandles extends a previous generation of per-shard histogram
// handles to cover n shards; shared indexes keep their handles (and
// therefore their histograms — registry handles are get-or-create by
// name).
func shardHandles(reg *obs.Registry, prev *shardObsHandles, n int) *shardObsHandles {
	h := &shardObsHandles{}
	if prev != nil {
		h.search = append(h.search, prev.search...)
		h.stats = append(h.stats, prev.stats...)
	}
	for i := len(h.search); i < n; i++ {
		h.search = append(h.search, reg.Histogram(fmt.Sprintf("sharded_shard%d_search_ns", i)))
		h.stats = append(h.stats, reg.Histogram(fmt.Sprintf("sharded_shard%d_stats_ns", i)))
	}
	return h
}

// SwapCluster atomically replaces the shard set the read path
// scatter-gathers over and returns the previous cluster (still open —
// the caller decides when to close it, after in-flight queries
// drain). It is the read half of a reshard cutover: wire it into
// shard.MigrationConfig.Cutover so reads move in the same atomic step
// as writes. The new cluster may have a different shard count; it
// must be over the same world, because the ranker's candidate arena
// is sized to the user universe at construction.
func (d *ShardedLiveDetector) SwapCluster(next *shard.Cluster) *shard.Cluster {
	prev := d.cluster.Load()
	if next.World() != prev.World() {
		panic("core: SwapCluster across worlds")
	}
	if d.obsOn {
		if n := next.NumShards(); n > len(d.obsShard.Load().search) {
			d.obsShard.Store(shardHandles(d.obsReg, d.obsShard.Load(), n))
		}
	}
	d.cluster.Store(next)
	return prev
}

// AttachMigration points the read path at an in-flight migration: every
// query reports to Migration.NoteRead (counting dual-read-window hits),
// and the serving layer surfaces Migration.Stats. Pass nil to detach
// after the migration finishes or aborts.
func (d *ShardedLiveDetector) AttachMigration(m *shard.Migration) { d.reshard.Store(m) }

// ReshardStats returns the attached migration's progress snapshot;
// ok is false when no migration is attached.
func (d *ShardedLiveDetector) ReshardStats() (st shard.MigrationStats, ok bool) {
	m := d.reshard.Load()
	if m == nil {
		return shard.MigrationStats{}, false
	}
	return m.Stats(), true
}

// Collection returns the domain collection backing expansion.
func (d *ShardedLiveDetector) Collection() *domains.Collection { return d.collection }

// Cluster returns the shard set being scatter-gathered over (the
// current one, if a reshard cutover has swapped it).
func (d *ShardedLiveDetector) Cluster() *shard.Cluster { return d.cluster.Load() }

// EpochVector appends the per-shard epochs of the view the next query
// would observe to dst (capacity reused, contents discarded). The
// serving layer tags cache entries with this vector and invalidates as
// soon as any component advances; a component whose shard could not be
// reached is EpochUnknown, which makes the sample uncacheable.
func (d *ShardedLiveDetector) EpochVector(dst []uint64) []uint64 {
	dst, _ = d.cluster.Load().EpochVector(dst)
	return dst
}

// MissingShards is the set of shards absent from one answer: bit i is
// set when shard i failed either phase of the scatter-gather, so zero
// means the answer is whole. It is a value, so reporting it costs no
// allocation. A cluster past 64 shards reports every missing shard from
// index 63 up as bit 63.
type MissingShards uint64

// add marks shard i missing.
func (m *MissingShards) add(i int) { *m |= 1 << min(i, 63) }

// AppendIndices appends the indices of the missing shards to dst in
// ascending order.
func (m MissingShards) AppendIndices(dst []int) []int {
	for i := 0; m != 0; i, m = i+1, m>>1 {
		if m&1 != 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// PartialStats reports the fail-fast degradation counters: queries
// answered with at least one shard missing from the result, and the
// total number of per-shard failures behind them. Both are zero for an
// all-local cluster.
func (d *ShardedLiveDetector) PartialStats() (partialQueries, shardErrors int64) {
	return d.partialQueries.Load(), d.shardErrors.Load()
}

// Failovers reports the cluster-wide count of reads a replicated
// shard answered from a non-first-choice replica after a replica
// failure (shard.Cluster.Failovers) — the healthy counterpart of
// PartialStats: a failover kept the query whole where a plain shard
// would have degraded. Zero for clusters with no replicated members.
// The serving layer mirrors it into serve.Stats.Failovers.
func (d *ShardedLiveDetector) Failovers() int64 { return d.cluster.Load().Failovers() }

// Expand returns the expansion terms for a query (excluding the query
// itself). Under MatchExact the slice is the admission table's own,
// shared by every search for the query — read-only — and the lookup
// allocates nothing for a query in canonical form.
func (d *ShardedLiveDetector) Expand(query string) []string {
	if d.admission == nil {
		return d.collection.ExpandMode(query, d.cfg.MaxExpansionTerms, d.cfg.Match)
	}
	return d.admission.Lookup(textutil.Canonical(query)).Expansion
}

// TermSetKey returns the identity of the term set an e# search for the
// query with canonical form canon matches: two queries with equal keys
// have the same answer at the same view, so the serving layer caches
// and coalesces under it. Under MatchExact that is the admission
// table's key (domains.TermSet.Key); a relaxed match mode has no closed
// table, so there every canonical query is its own term set.
func (d *ShardedLiveDetector) TermSetKey(canon string) string {
	if d.admission == nil {
		return canon
	}
	return d.admission.Lookup(canon).Key
}

// Search runs the full e# online stage scattered across the shards.
// Safe for concurrent use with ingestion and compaction on every shard.
func (d *ShardedLiveDetector) Search(query string) ([]expertise.Expert, SearchTrace) {
	results, trace, _ := d.SearchContext(context.Background(), query)
	return results, trace
}

// SearchContext is Search under a caller deadline: the remaining
// budget rides the context down the scatter-gather into every
// per-shard RPC, and an expired budget fails the whole query with the
// context's error instead of degrading to partial results — a
// front-door request past its deadline has no reader left to serve a
// partial answer to. With context.Background() it is exactly Search.
func (d *ShardedLiveDetector) SearchContext(ctx context.Context, query string) ([]expertise.Expert, SearchTrace, error) {
	trace := SearchTrace{Query: query, Expansion: d.Expand(query)}
	results, matched, missing, spans, mergeRank, err := d.scatterGather(ctx, query, trace.Expansion)
	trace.MatchedTweets, trace.Missing, trace.Shards, trace.MergeRankNS = matched, missing, spans, mergeRank
	return results, trace, err
}

// SearchBaseline runs the unexpanded Pal & Counts baseline scattered
// across the shards.
func (d *ShardedLiveDetector) SearchBaseline(query string) []expertise.Expert {
	results, _, _ := d.SearchBaselineContext(context.Background(), query)
	return results
}

// SearchBaselineContext is SearchBaseline under a caller deadline,
// with the same whole-query expiry semantics as SearchContext. missing
// names the shards the answer lacks, as SearchTrace.Missing does for
// e#.
func (d *ShardedLiveDetector) SearchBaselineContext(ctx context.Context, query string) (results []expertise.Expert, missing MissingShards, err error) {
	results, _, missing, _, _, err = d.scatterGather(ctx, query, nil)
	return results, missing, err
}

// scatterGather is the read path: fan the scatter stage (each shard
// matches every term against one pinned view, unions the ids, extracts
// raw candidate rows and reads their denominators) out over the
// shards, merge the integer numerators, fan the per-shard top-up of
// the foreign candidates' denominators out against the same pinned
// views, then finalize and rank once globally. It
// returns the ranked experts and the total matched-tweet count
// (per-shard unions are disjoint — every post lives on exactly one
// shard — so their sum is the size of the global union). A shard that
// fails either phase is dropped whole, named in the returned
// MissingShards and counted in PartialStats. On an
// instrumented detector (obsOn) it additionally returns the per-shard
// spans and the merge+rank nanoseconds, recording both into the
// registry's histograms; un-instrumented, the two extras are nil/0 and
// no clock is read.
//
// Deadline policy: ctx expiry is a whole-query error, not a partial
// result. The check sits after each fan-out barrier — every worker has
// returned, so every pinned view can be released before bailing, which
// is what keeps cancellation leak-free (no goroutine outlives the
// fan-out, no view outlives the query).
// ctxExpired is the barrier check. ctx.Err() alone is racy against
// wire deadlines: a per-RPC conn deadline derived from this context
// fires on wall-clock time, while ctx.Err() flips only after the
// context's own timer goroutine has run — so for a few scheduler ticks
// after the shared instant, the shard has already failed with a
// deadline error but ctx.Err() still reads nil, and the query would
// degrade to a partial result instead of the whole-query timeout the
// caller's budget demands. Checking the deadline against the clock
// closes that window deterministically.
func ctxExpired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

func (d *ShardedLiveDetector) scatterGather(ctx context.Context, query string, expansion []string) ([]expertise.Expert, int, MissingShards, []obs.ShardSpan, int64, error) {
	if mig := d.reshard.Load(); mig != nil {
		mig.NoteRead()
	}
	// One load pins this query to one cluster generation: a reshard
	// cutover swapping the pointer mid-query cannot mix shard sets
	// (which would double-count denominators across the two sides).
	c := d.cluster.Load()
	s := d.scratch.Get().(*shardedScratch)
	n := c.NumShards()
	for len(s.shards) < n {
		s.shards = append(s.shards, shardSlot{})
	}
	s.terms = append(s.terms[:0], query)
	s.terms = append(s.terms, expansion...)

	// MatchWorkers doubles as the shard fan-out cap (applied directly,
	// not through matchFanOut's short-query heuristic, which is sized to
	// cheap per-term matches). As served the scatter is serial:
	// cmd/gateway sets MatchWorkers = 1 — request-level concurrency
	// already fills the cores — so fanOut runs the shards inline on the
	// request's goroutine, spawning and allocating nothing, and a remote
	// cluster's round trips go out one after another in each phase. Only
	// workers > 1 runs shards concurrently, at a goroutine per worker per
	// phase; whether that pays at any N is unmeasured (ROADMAP item 6(a)).
	workers := d.cfg.MatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fanOut(n, min(n, workers), func(si int) {
		sl := &s.shards[si]
		sl.view = nil
		sl.searchNS, sl.statsNS = 0, 0
		var t0 time.Time
		if d.obsOn {
			t0 = time.Now()
		}
		// Rows plus the shard's own candidates' denominators arrive
		// together (for a remote shard, in one round trip). Phase two
		// then owes only the foreign candidates' denominators — nothing
		// at all when this shard saw every global candidate, which is
		// the healthy N=1 case.
		sl.raw, sl.matched, sl.ownStats, sl.view, sl.err =
			c.Backend(si).SearchStats(ctx, s.terms, d.extended, sl.raw, sl.ownStats)
		if d.obsOn {
			sl.searchNS = time.Since(t0).Nanoseconds()
		}
	})

	if err := ctxExpired(ctx); err != nil {
		d.abandon(s, n)
		return nil, 0, 0, nil, 0, err
	}

	var mergeRank int64
	var tMerge time.Time
	if d.obsOn {
		tMerge = time.Now()
	}
	matched, live := s.mergeLive(n)
	if d.obsOn {
		mergeRank += time.Since(tMerge).Nanoseconds()
	}
	// Gather stage phase two: every live shard answers for the global
	// candidates it did not itself surface — a user's mention
	// denominators live partly on shards where the user never posted —
	// against the view its own candidates were extracted from, so the
	// totals stay exact.
	if len(s.users) > 0 {
		fanOut(n, min(n, workers), func(si int) {
			sl := &s.shards[si]
			if sl.err != nil {
				return
			}
			if d.obsOn {
				t0 := time.Now()
				defer func() { sl.statsNS = time.Since(t0).Nanoseconds() }()
			}
			sl.topUsers = missingUsers(sl.topUsers[:0], s.users, sl.raw)
			if len(sl.topUsers) == 0 {
				sl.stats = sl.stats[:0]
				return
			}
			sl.stats, sl.err = sl.view.Stats(ctx, sl.topUsers, sl.stats)
		})
		if err := ctxExpired(ctx); err != nil {
			d.abandon(s, n)
			return nil, 0, 0, nil, 0, err
		}
	}
	if d.obsOn {
		tMerge = time.Now()
	}
	// failed counts the shards missing from the result, whichever phase
	// they failed in, and missing names them.
	failed := 0
	var missing MissingShards
	for si := 0; si < n; si++ {
		if s.shards[si].err != nil {
			failed++
			missing.add(si)
		}
	}
	// A shard that died between the two phases is out of the result
	// whole: its numerators without its denominators would skew every
	// ratio they enter. Re-merge over the survivors; what they already
	// fetched covers a superset of the shrunken candidate set, and the
	// aligned walks below drop the surplus.
	if n-failed < live {
		matched, _ = s.mergeLive(n)
	}
	s.denoms = s.denoms[:0]
	for range s.users {
		s.denoms = append(s.denoms, expertise.UserStats{})
	}
	var spans []obs.ShardSpan
	var oh *shardObsHandles
	if d.obsOn {
		spans = make([]obs.ShardSpan, 0, n)
		oh = d.obsShard.Load()
	}
	for si := 0; si < n; si++ {
		sl := &s.shards[si]
		if sl.view != nil {
			sl.view.Release()
			sl.view = nil
		}
		if d.obsOn {
			sp := obs.ShardSpan{Shard: si, SearchNS: sl.searchNS, StatsNS: sl.statsNS}
			if sl.err != nil {
				sp.Err = sl.err.Error()
				d.obsShardErrs.Inc()
			} else {
				sp.Matched = sl.matched
				sp.Rows = len(sl.raw)
			}
			spans = append(spans, sp)
			// The handle generation can trail a concurrent SwapCluster
			// by one query; skip rather than index past it.
			if si < len(oh.search) {
				oh.search[si].Observe(sl.searchNS)
				if sl.statsNS > 0 {
					oh.stats[si].Observe(sl.statsNS)
				}
			}
		}
		if sl.err != nil {
			sl.err = nil
			continue
		}
		if len(s.users) == 0 {
			continue
		}
		// The shard's contribution arrives in two aligned pieces:
		// own-candidate denominators (positionally aligned with its
		// rows) and the topped-up foreign ones. Integer adds commute,
		// so the split accumulation sums to exactly what one full
		// fetch would have.
		addStatsForRows(s.denoms, s.users, sl.raw, sl.ownStats)
		if len(sl.topUsers) > 0 {
			addStatsForUsers(s.denoms, s.users, sl.topUsers, sl.stats)
		}
	}

	s.cands = d.ranker.FinalizeRaw(s.cands, s.merged, s.denoms, c.World())
	results := d.ranker.Rank(s.cands)
	if d.obsOn {
		mergeRank += time.Since(tMerge).Nanoseconds()
		d.obsMergeRankNS.Observe(mergeRank)
	}
	d.scratch.Put(s)
	if failed > 0 {
		d.partialQueries.Add(1)
		d.shardErrors.Add(int64(failed))
	}
	return results, matched, missing, spans, mergeRank, nil
}

// mergeLive merges the numerators of the first n slots that have not
// failed into s.merged and lists the merged candidates in s.users. It
// returns the live shards' total matched-tweet count and how many they
// are.
func (s *shardedScratch) mergeLive(n int) (matched, live int) {
	s.raws = s.raws[:0]
	for si := 0; si < n; si++ {
		sl := &s.shards[si]
		if sl.err != nil {
			continue
		}
		matched += sl.matched
		s.raws = append(s.raws, sl.raw)
	}
	s.merged = expertise.MergeRawNumerators(s.merged, s.raws...)
	s.users = s.users[:0]
	for i := range s.merged {
		s.users = append(s.users, s.merged[i].User)
	}
	return matched, len(s.raws)
}

// abandon is the deadline-expiry exit: release every view the query
// still pins, clear the per-slot errors and pool the scratch. It runs
// only after a fan-out barrier, so no worker can still be writing to
// the slots.
func (d *ShardedLiveDetector) abandon(s *shardedScratch, n int) {
	for si := 0; si < n; si++ {
		sl := &s.shards[si]
		if sl.view != nil {
			sl.view.Release()
			sl.view = nil
		}
		sl.err = nil
	}
	d.scratch.Put(s)
}

// missingUsers appends to dst every user in all that rows does not
// cover — the foreign candidates whose denominators a composite shard
// still owes. Both inputs are ascending by user (the merge and the
// per-shard extraction both emit that order), so one two-pointer pass
// suffices and dst comes out ascending, as View.Stats requires.
func missingUsers(dst []world.UserID, all []world.UserID, rows []expertise.RawCandidate) []world.UserID {
	j := 0
	for _, u := range all {
		for j < len(rows) && rows[j].User < u {
			j++
		}
		if j < len(rows) && rows[j].User == u {
			j++
			continue
		}
		dst = append(dst, u)
	}
	return dst
}

// addStatsForRows accumulates a composite shard's own-candidate
// denominators (stats aligned with rows) into the global accumulator
// (denoms aligned with users). rows' users are a subset of users and
// both are ascending; entries that fall outside users — impossible
// from a well-behaved shard, since the global candidate set is the
// union of per-shard rows — are dropped rather than mis-added.
func addStatsForRows(denoms []expertise.UserStats, users []world.UserID, rows []expertise.RawCandidate, stats []expertise.UserStats) {
	j := 0
	n := min(len(rows), len(stats))
	for i := 0; i < n; i++ {
		u := rows[i].User
		for j < len(users) && users[j] < u {
			j++
		}
		if j == len(users) {
			return
		}
		if users[j] != u {
			continue
		}
		denoms[j].Tweets += stats[i].Tweets
		denoms[j].Mentions += stats[i].Mentions
		denoms[j].Retweets += stats[i].Retweets
		j++
	}
}

// addStatsForUsers accumulates a top-up fetch (stats aligned with sub,
// an ascending subset of users) into the global accumulator (denoms
// aligned with users) — the same bounded two-pointer walk as
// addStatsForRows, keyed by an explicit user list.
func addStatsForUsers(denoms []expertise.UserStats, users []world.UserID, sub []world.UserID, stats []expertise.UserStats) {
	j := 0
	n := min(len(sub), len(stats))
	for i := 0; i < n; i++ {
		u := sub[i]
		for j < len(users) && users[j] < u {
			j++
		}
		if j == len(users) {
			return
		}
		if users[j] != u {
			continue
		}
		denoms[j].Tweets += stats[i].Tweets
		denoms[j].Mentions += stats[i].Mentions
		denoms[j].Retweets += stats[i].Retweets
		j++
	}
}
