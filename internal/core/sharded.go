package core

import (
	"context"
	"fmt"
	"math/bits"
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
// cluster that never ingests. A query runs the scatter stage over the
// shards one after another on its own goroutine — each shard matches
// every term, unions the tweet ids, extracts raw integer candidate rows
// and reads those candidates' denominators against one pinned view —
// then gathers: numerators merge by summation, each shard tops up the
// denominators of the candidates it did not itself surface from the
// same pinned view, and a single global ranking pass produces the
// top-k. A quiesced N-shard
// cluster ranks bit-identically to a cold Detector over the same
// posts, for any N and any local/remote mix — the equivalence tests of
// every layer enforce this.
//
// Failure policy is fail-fast partial results: a shard whose transport
// errors in either phase contributes nothing to that query, the answer
// is exactly what the remaining shards alone would rank, the answer
// names the missing shards (SearchTrace.Missing) so the serving layer
// never caches it nor passes it off as whole, and the Partials counters —
// surfaced through serve.Stats — record the degradation. The one retry
// is for a shard that answered phase one and then failed its top-up:
// the whole scatter runs once more, within the caller's budget, because
// that shard's answer from another replica (or connection) can surface
// candidates every other shard must top up. A replica.Set has marked
// the failed replica by then, so the re-run reads elsewhere; a shard
// that answers it counts as a failover.
type ShardedLiveDetector struct {
	// admission is the collection's expansion table at this detector's
	// cap, built once at construction; the detector keeps nothing else
	// of the collection.
	admission *domains.Admission
	// cluster is the fixed shard set every query scatter-gathers over.
	cluster  *shard.Cluster
	ranker   *expertise.Ranker
	extended bool
	cfg      OnlineConfig
	scratch  sync.Pool // of *shardedScratch, reused across queries

	partialQueries atomic.Int64
	shardErrors    atomic.Int64
	// recovered counts shards missing from a query's first scatter that
	// answered its re-run (see Failovers).
	recovered atomic.Int64

	// Observability (nil without OnlineConfig.Obs): per-shard scatter
	// and gather latency histograms, the global merge+rank histogram,
	// and per-query span collection for the serving layer's slow log.
	// All handles are pre-registered at construction so the query path
	// records with plain atomic adds.
	obsOn          bool
	obsShardSearch []*obs.Histogram
	obsShardStats  []*obs.Histogram
	obsMergeRankNS *obs.Histogram
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
		admission: coll.Admission(cfg.MaxExpansionTerms),
		ranker:    expertise.NewRanker(len(c.World().Users), cfg.Expertise),
		cluster:   c,
		cfg:       cfg,
	}
	d.extended = d.ranker.Params().Extended()
	d.scratch.New = func() any { return &shardedScratch{} }
	if cfg.Obs != nil {
		d.obsOn = true
		for i := 0; i < c.NumShards(); i++ {
			d.obsShardSearch = append(d.obsShardSearch, cfg.Obs.Histogram(fmt.Sprintf("sharded_shard%d_search_ns", i)))
			d.obsShardStats = append(d.obsShardStats, cfg.Obs.Histogram(fmt.Sprintf("sharded_shard%d_stats_ns", i)))
		}
		d.obsMergeRankNS = cfg.Obs.Histogram("sharded_merge_rank_ns")
		cfg.Obs.RegisterFunc("sharded_shard_errors", d.shardErrors.Load)
	}
	return d
}

// Cluster returns the shard set being scatter-gathered over.
func (d *ShardedLiveDetector) Cluster() *shard.Cluster { return d.cluster }

// EpochVector appends the per-shard epochs of the view the next query
// would observe to dst (capacity reused, contents discarded). The
// serving layer tags cache entries with this vector and invalidates as
// soon as any component advances; a component whose shard could not be
// reached is EpochUnknown, which makes the sample uncacheable.
func (d *ShardedLiveDetector) EpochVector(dst []uint64) []uint64 {
	dst, _ = d.cluster.EpochVector(dst)
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
// would have degraded — plus the shards that failed a query's top-up
// and answered its re-run. Zero for a cluster nothing has failed in.
// The serving layer mirrors it into serve.Stats.Failovers.
func (d *ShardedLiveDetector) Failovers() int64 {
	return d.cluster.Failovers() + d.recovered.Load()
}

// Expand returns the expansion terms for a query (excluding the query
// itself). The slice is the admission table's own, shared by every
// search for the query — read-only. The canonical form the table is
// keyed on is built in a stack buffer, so the lookup allocates nothing
// for a lower-case query of up to eight tokens, whatever their order.
func (d *ShardedLiveDetector) Expand(query string) []string {
	var buf [128]byte
	ts, _ := d.admission.Lookup(textutil.AppendCanonical(buf[:0], query))
	return ts.Expansion
}

// TermSetKey returns the identity of the term set an e# search for the
// query with canonical form canon matches: two queries with equal keys
// have the same answer at the same view, so the serving layer caches
// and coalesces under it: the admission table's key
// (domains.TermSet.Key), a shared string, or "" for a query outside
// every domain, which is its own term set: the caller names it by canon
// without a copy when it already holds that text.
func (d *ShardedLiveDetector) TermSetKey(canon []byte) string {
	ts, _ := d.admission.Lookup(canon)
	return ts.Key
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

// scatterGather is the read path: run the scatter stage (each shard
// matches every term against one pinned view, unions the ids, extracts
// raw candidate rows and reads their denominators) over the shards in
// a plain loop on the caller's goroutine, merge the integer numerators,
// run the per-shard top-up of the foreign candidates' denominators
// against the same pinned views in a second loop, then finalize and
// rank once globally. Nothing here starts a goroutine or builds a
// closure. It
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
// result. The check sits after each phase's loop, so every pinned view
// can be released before bailing, which is what keeps cancellation
// leak-free (no view outlives the query). shard.Expired is that check:
// it reads the deadline against the clock, so a shard that failed on a
// wire deadline derived from ctx cannot degrade the query to a partial
// result while ctx.Err() still reads nil. The served path's budget
// (internal/serve) reads the clock in Err itself; the check stays for
// callers that pass a stock context.

func (d *ShardedLiveDetector) scatterGather(ctx context.Context, query string, expansion []string) ([]expertise.Expert, int, MissingShards, []obs.ShardSpan, int64, error) {
	s := d.scratch.Get().(*shardedScratch)
	n := d.cluster.NumShards()
	for len(s.shards) < n {
		s.shards = append(s.shards, shardSlot{})
	}
	s.terms = append(s.terms[:0], query)
	s.terms = append(s.terms, expansion...)

	var (
		mergeRank             int64
		tMerge                time.Time
		matched, live, failed int
		// missing names the shards absent from the result, whichever
		// phase they failed in; retried names those absent from the
		// first scatter when it had to be re-run.
		missing, retried MissingShards
	)
	for {
		for si := 0; si < n; si++ {
			d.scatterShard(ctx, s, si)
		}

		if err := shard.Expired(ctx); err != nil {
			d.abandon(s, n)
			return nil, 0, 0, nil, 0, err
		}

		if d.obsOn {
			tMerge = time.Now()
		}
		matched, live = s.mergeLive(n)
		if d.obsOn {
			mergeRank += time.Since(tMerge).Nanoseconds()
		}
		// Gather stage phase two: every live shard tops up the global
		// candidates it did not itself surface (topUpShard).
		if len(s.users) > 0 {
			for si := 0; si < n; si++ {
				d.topUpShard(ctx, s, si)
			}
			if err := shard.Expired(ctx); err != nil {
				d.abandon(s, n)
				return nil, 0, 0, nil, 0, err
			}
		}
		if d.obsOn {
			tMerge = time.Now()
		}
		failed, missing = 0, 0
		for si := 0; si < n; si++ {
			if s.shards[si].err != nil {
				failed++
				missing.add(si)
			}
		}
		// A shard that answered phase one and failed its top-up is asked
		// again, once, by re-running the whole scatter: its answer from
		// elsewhere can surface candidates every other shard must top up.
		if n-failed == live || retried != 0 {
			break
		}
		retried = missing
		d.release(s, n)
	}
	if retried != 0 {
		d.recovered.Add(int64(bits.OnesCount64(uint64(retried &^ missing))))
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
	if d.obsOn {
		spans = make([]obs.ShardSpan, 0, n)
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
			} else {
				sp.Matched = sl.matched
				sp.Rows = len(sl.raw)
			}
			spans = append(spans, sp)
			d.obsShardSearch[si].Observe(sl.searchNS)
			if sl.statsNS > 0 {
				d.obsShardStats[si].Observe(sl.statsNS)
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

	s.cands = d.ranker.FinalizeRaw(s.cands, s.merged, s.denoms, d.cluster.World())
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

// scatterShard is shard si's phase one: match every term against one
// pinned view, extract the raw candidate rows and read the shard's own
// candidates' denominators — together, so a remote shard answers in one
// round trip. Phase two then owes only the foreign candidates'
// denominators, nothing at all when this shard saw every global
// candidate, which is the healthy N=1 case.
func (d *ShardedLiveDetector) scatterShard(ctx context.Context, s *shardedScratch, si int) {
	sl := &s.shards[si]
	sl.view = nil
	sl.searchNS, sl.statsNS = 0, 0
	var t0 time.Time
	if d.obsOn {
		t0 = time.Now()
	}
	sl.raw, sl.matched, sl.ownStats, sl.view, sl.err =
		d.cluster.Backend(si).SearchStats(ctx, s.terms, d.extended, sl.raw, sl.ownStats)
	if d.obsOn {
		sl.searchNS = time.Since(t0).Nanoseconds()
	}
}

// topUpShard is shard si's phase two: a live shard answers for the
// global candidates it did not itself surface — a user's mention
// denominators live partly on shards where the user never posted —
// against the view its own candidates were extracted from, so the
// totals stay exact.
func (d *ShardedLiveDetector) topUpShard(ctx context.Context, s *shardedScratch, si int) {
	sl := &s.shards[si]
	if sl.err != nil {
		return
	}
	var t0 time.Time
	if d.obsOn {
		t0 = time.Now()
	}
	sl.topUsers = missingUsers(sl.topUsers[:0], s.users, sl.raw)
	if len(sl.topUsers) == 0 {
		sl.stats = sl.stats[:0]
	} else {
		sl.stats, sl.err = sl.view.Stats(ctx, sl.topUsers, sl.stats)
	}
	if d.obsOn {
		sl.statsNS = time.Since(t0).Nanoseconds()
	}
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

// abandon is the deadline-expiry exit: release the query's slots and
// pool the scratch.
func (d *ShardedLiveDetector) abandon(s *shardedScratch, n int) {
	d.release(s, n)
	d.scratch.Put(s)
}

// release frees every view the query still pins and clears the
// per-slot errors. It runs between phases, when no shard call is in
// flight.
func (d *ShardedLiveDetector) release(s *shardedScratch, n int) {
	for si := 0; si < n; si++ {
		sl := &s.shards[si]
		if sl.view != nil {
			sl.view.Release()
			sl.view = nil
		}
		sl.err = nil
	}
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
