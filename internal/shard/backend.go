// The per-shard query surface the scatter-gather read path addresses,
// an interface narrow enough to put a wire behind: a shard answers a
// term-set search with raw integer candidate rows, the denominators of
// those same candidates and a pinned view, the pinned view answers the
// batched denominator fetch for everyone else's candidates, and writes
// arrive as routed batches of posts — IngestBatch is the only write
// verb at every layer, a single post a batch of one. A Local wraps an
// ingest.Index in-process; transport.RemoteShard speaks the same
// interface to a transport.ShardServer over TCP; and a Cluster composes
// any mix of the two behind the routing and epoch-vector surfaces the
// detector and the serving cache consume.
package shard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/expertise"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/textutil"
	"repro/internal/world"
)

// EpochUnknown is the epoch-vector component a Cluster reports for a
// shard whose epoch it cannot observe (the shard's transport failed).
// The serving layer treats any sample containing it as uncacheable —
// an unobservable view must neither serve nor admit cache entries.
const EpochUnknown = ^uint64(0)

// Backend is one shard of the author-partitioned stream as the
// scatter-gather read path addresses it — local (a Local over an
// ingest.Index) or remote (a transport.RemoteShard speaking the wire
// protocol to a transport.ShardServer). Every method may fail: a local
// backend never does, a remote one fails fast when its transport does,
// and the caller (core.ShardedLiveDetector) degrades to partial
// results. Implementations are safe for concurrent use.
//
// The read path calls SearchStats, never Search: Search is the same
// scatter stage without the fused denominators.
type Backend interface {
	SearchStatser
	EpochLocality
	// Search runs the per-shard scatter stage against one pinned
	// immutable view: match every term, union the per-term id lists,
	// and extract raw candidates, appended to raw (capacity reused,
	// contents discarded) in ascending user order. It returns the
	// filled row slice, the size of the matched-tweet union, and a View
	// pinned to the exact state the rows were extracted from. The
	// caller must Release the view, error or not search again on it.
	// extended asks extraction to also count hashtagged posts (the
	// extended feature set); it travels with the request because a
	// remote shard does not share the coordinator's parameter set.
	// ctx carries the caller's remaining deadline budget: a local
	// backend checks it once at entry, a remote one derives each RPC's
	// wire deadline from it and fails with ctx.Err() when the budget is
	// already spent — the front door's 504 instead of a default-timeout
	// hang.
	Search(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate) (rows []expertise.RawCandidate, matched int, v View, err error)
	// IngestBatch appends posts in order — the one write verb: a single
	// post is a batch of one. A remote backend ships the batch in a
	// handful of frames instead of one round trip per post.
	IngestBatch(posts []microblog.Post) error
	// Epoch returns the shard's current snapshot epoch.
	Epoch() (uint64, error)
	// Failovers counts the reads a backend that can serve from more
	// than one place (replica.Set) answered from a non-first-choice
	// replica after at least one replica failed; a plain shard reports
	// zero. It is read on every instrumented request, so it must stay
	// an allocation-free atomic read.
	Failovers() int64
	// Quiesce synchronously drains the shard's eligible compactions.
	Quiesce() error
	// Close releases the backend: a Local stops its index's compactor,
	// a remote client closes its connections (the remote server keeps
	// running).
	Close() error
}

// SearchStatser is the scatter stage of every Backend: the whole
// search→stats conversation in one call — the candidate rows plus the
// denominator triples for those same candidates (positionally aligned
// with rows), all read from one pinned view. For a remote backend that
// is the OpSearchStats composite — one round trip instead of two — and
// the returned View still answers the coordinator's top-up Stats for
// foreign candidates against the same pinned state.
type SearchStatser interface {
	// SearchStats is Backend.Search fused with a View.Stats for the
	// returned rows' own users: stats[i] belongs to rows[i].User. The
	// caller must Release the view exactly as with Search. ctx carries
	// the deadline budget exactly as in Backend.Search.
	SearchStats(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate, stats []expertise.UserStats) (rows []expertise.RawCandidate, matched int, rowStats []expertise.UserStats, v View, err error)
}

// EpochLocality reports whether a Backend's Epoch is a process-local
// read (an atomic load or a counter) rather than an RPC: Local and
// replica.Set always, transport.RemoteShard while an epoch-push
// subscription keeps its cached epoch fresh. Nothing in the serving
// path reads it; it stays because bench/trace.go names the interface.
type EpochLocality interface {
	// EpochIsLocal reports whether Epoch reads process-local state.
	EpochIsLocal() bool
}

// View is one pinned immutable shard state, handed out by a search so
// the gather stage's denominator fetch reads the same state candidate
// extraction did — for a local shard an ingest.Snapshot, for a remote
// shard a connection whose server end pinned the snapshot. A
// single-shard server pins nothing (there are no foreign candidates to
// top up), so its view refuses Stats rather than read a later state.
// Views are single-query, single-goroutine objects; Release returns the
// underlying resources for reuse.
type View interface {
	// Stats appends the shard's denominator triple for each user to dst
	// (capacity reused, contents discarded), evaluated against the
	// pinned state. users must be strictly ascending (the wire encoding
	// is delta-compressed, a snapshot sums its tail in one pass); a
	// local view refuses any other list with an error. ctx bounds the
	// fetch like Backend.Search.
	Stats(ctx context.Context, users []world.UserID, dst []expertise.UserStats) ([]expertise.UserStats, error)
	// Release returns the view's resources. No method may be called
	// afterwards.
	Release()
}

// Local adapts one ingest.Index to the Backend interface: the
// in-process shard of New's all-local cluster, and the execution
// engine a transport.ShardServer dispatches decoded
// frames to — both sides of the wire run exactly this code, which is
// how the equivalence spine survives the process boundary. Safe for
// concurrent use; per-query buffers are pooled.
type Local struct {
	idx    *ingest.Index
	ranker *expertise.Ranker
	pool   sync.Pool // of *localScratch
	views  sync.Pool // of *localView
}

var _ Backend = (*Local)(nil)

// localScratch holds one query's match buffers: the current term's
// tokens, a matched-id buffer and segment-local scratch per term, the
// merge frontier and the union.
type localScratch struct {
	tokens   []string
	lists    [][]microblog.TweetID
	locals   [][]microblog.TweetID
	frontier [][]microblog.TweetID
	merged   []microblog.TweetID
	users    []world.UserID
}

// NewLocal wraps a streaming index as a Backend.
func NewLocal(idx *ingest.Index) *Local {
	l := &Local{
		idx: idx,
		// Extraction needs only the arena (sized to the user universe)
		// and the explicit extended flag; ranking weights stay with the
		// coordinator.
		ranker: expertise.NewRanker(len(idx.World().Users), expertise.DefaultParams()),
	}
	l.pool.New = func() any { return &localScratch{} }
	l.views.New = func() any { return &localView{owner: l} }
	return l
}

// Index returns the wrapped streaming index.
func (l *Local) Index() *ingest.Index { return l.idx }

// Search implements Backend: one atomic snapshot load pins the view,
// every term runs the zero-copy per-segment match, the per-term lists
// union through the k-way merge, and raw candidates are extracted from
// the union — the per-shard unit of work of the scatter. The context
// is checked once at entry — an in-process match never blocks, so a
// live budget runs it to completion; an already-expired one fails
// before pinning a snapshot.
func (l *Local) Search(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate) ([]expertise.RawCandidate, int, View, error) {
	if err := ctx.Err(); err != nil {
		return raw[:0], 0, nil, err
	}
	snap := l.idx.Snapshot()
	s := l.pool.Get().(*localScratch)
	for len(s.lists) < len(terms) {
		s.lists = append(s.lists, nil)
		s.locals = append(s.locals, nil)
	}
	lists := s.lists[:len(terms)]
	for i, t := range terms {
		s.tokens = textutil.TokenizeAppend(s.tokens[:0], t)
		lists[i], s.locals[i] = snap.MatchTokensAppend(s.tokens, lists[i], s.locals[i])
	}
	s.merged, s.frontier = expertise.MergeTweetsInto(s.merged, s.frontier, lists...)
	raw = l.ranker.RawCandidatesModeInto(raw, snap, s.merged, extended)
	matched := len(s.merged)
	l.pool.Put(s)

	v := l.views.Get().(*localView)
	v.snap = snap
	return raw, matched, v, nil
}

// SearchStats implements Backend in-process: Search plus a stats
// evaluation for the matched candidates against the same pinned
// snapshot — the same work and the same totals as a remote shard's
// composite (own-candidate stats here, foreign top-up through the
// view), so every topology runs one coordinator path.
func (l *Local) SearchStats(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate, stats []expertise.UserStats) ([]expertise.RawCandidate, int, []expertise.UserStats, View, error) {
	rows, matched, v, err := l.Search(ctx, terms, extended, raw)
	if err != nil {
		return rows, matched, stats[:0], nil, err
	}
	s := l.pool.Get().(*localScratch)
	s.users = s.users[:0]
	for i := range rows {
		s.users = append(s.users, rows[i].User)
	}
	stats, err = v.Stats(ctx, s.users, stats)
	l.pool.Put(s)
	if err != nil {
		v.Release()
		return rows, matched, stats[:0], nil, err
	}
	return rows, matched, stats, v, nil
}

// PagePosts returns up to max posts of the shard's log starting at
// global id from, and the log's current length; the remote OpTweets
// handler answers with it server-side. The page is one Snapshot.Scan,
// so a spilled segment's posts are decoded sequentially and never enter
// its block cache. A negative from is outside the log and pages
// nothing, like one past its end; max <= 0 pages nothing (a cheap total
// probe).
func (l *Local) PagePosts(from, max int) (posts []microblog.Post, total int) {
	snap := l.idx.Snapshot()
	total = snap.NumTweets()
	if max <= 0 || from < 0 || from >= total {
		return nil, total
	}
	end := from + min(max, total-from) // never from+max: max may be near MaxInt
	posts = make([]microblog.Post, 0, end-from)
	snap.Scan(from, end, func(tw *microblog.Tweet) {
		posts = append(posts, microblog.Post{
			Author:       tw.Author,
			Text:         tw.Text,
			Mentions:     tw.Mentions,
			RetweetCount: tw.RetweetCount,
			Topic:        tw.Topic,
		})
	})
	return posts, total
}

// IngestBatch implements Backend: the batch is one publish and one
// epoch (ingest.Index.IngestBatch), exactly what a transport.ShardServer
// does with an OpIngest frame.
func (l *Local) IngestBatch(posts []microblog.Post) error {
	l.idx.IngestBatch(posts)
	return nil
}

// Epoch implements Backend.
func (l *Local) Epoch() (uint64, error) { return l.idx.Epoch(), nil }

// EpochIsLocal implements Backend: a Local's epoch is one atomic load.
// Nothing in the serving path reads it.
func (l *Local) EpochIsLocal() bool { return true }

// Failovers implements Backend: a single index has nowhere to fail
// over to.
func (l *Local) Failovers() int64 { return 0 }

// Quiesce implements Backend.
func (l *Local) Quiesce() error {
	l.idx.Quiesce()
	return nil
}

// Close implements Backend: it stops the index's background compactor.
// The index remains readable and writable; Close is idempotent.
func (l *Local) Close() error {
	l.idx.Close()
	return nil
}

// localView is a pinned ingest.Snapshot plus its pool slot.
type localView struct {
	owner *Local
	snap  *ingest.Snapshot
}

// Stats implements View against the pinned snapshot. Like Search, the
// context is checked once at entry — the evaluation itself is
// non-blocking. A user list that is not strictly ascending is refused:
// the snapshot's batch sums rely on it, and a peer's OpStats must get
// an error rather than a wrong count.
func (v *localView) Stats(ctx context.Context, users []world.UserID, dst []expertise.UserStats) ([]expertise.UserStats, error) {
	if err := ctx.Err(); err != nil {
		return dst[:0], err
	}
	for i := 1; i < len(users); i++ {
		if users[i] <= users[i-1] {
			return dst[:0], fmt.Errorf("shard: stats users not strictly ascending at %d (%d after %d)", i, users[i], users[i-1])
		}
	}
	return v.snap.StatsInto(dst, users), nil
}

// Release implements View. Dropping the snapshot reference matters: a
// pooled idle view must not pin retired segments (and their tail
// generations) in memory between queries.
func (v *localView) Release() {
	v.snap = nil
	v.owner.views.Put(v)
}

// Cluster composes an ordered shard set — any mix of Local and remote
// backends — behind the surfaces the write path, the scatter-gather
// detector and the serving cache consume: author-hash write routing
// (position in the backend list is the shard index ShardOf routes to),
// the per-shard epoch vector, and whole-cluster quiesce/close. New builds the all-local special case; cmd/shardd plus
// transport.RemoteShard clients form the all-remote one; mixing them is
// how a deployment drains one process at a time.
type Cluster struct {
	w        *world.World
	backends []Backend
}

// NewCluster assembles a cluster over an ordered backend list. Backend
// i must hold exactly the authors ShardOf routes to i — for remote
// backends that contract is established at deployment (cmd/shardd's
// -shard/-of flags) and checked by the transport handshake.
func NewCluster(w *world.World, backends ...Backend) *Cluster {
	return &Cluster{w: w, backends: backends}
}

// World returns the generating world shared by every shard.
func (c *Cluster) World() *world.World { return c.w }

// NumShards returns the partition count.
func (c *Cluster) NumShards() int { return len(c.backends) }

// Backend returns the i-th shard.
func (c *Cluster) Backend(i int) Backend { return c.backends[i] }

// ShardFor returns the shard index the user's posts route to.
func (c *Cluster) ShardFor(u world.UserID) int { return ShardOf(u, len(c.backends)) }

// IngestBatch is the routed write: posts go to their author shards,
// preserving per-shard arrival order for a single caller, and each
// shard's run ships as a batch (one wire frame per run for remote
// backends). The first error aborts the remainder. Safe for concurrent
// use.
func (c *Cluster) IngestBatch(posts []microblog.Post) error {
	for start := 0; start < len(posts); {
		si := ShardOf(posts[start].Author, len(c.backends))
		end := start + 1
		for end < len(posts) && ShardOf(posts[end].Author, len(c.backends)) == si {
			end++
		}
		if err := c.backends[si].IngestBatch(posts[start:end]); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
		start = end
	}
	return nil
}

// EpochVector appends each shard's current epoch to dst (capacity
// reused, contents discarded), one shard after another on the caller's
// goroutine. A shard whose epoch cannot be observed contributes
// EpochUnknown — the serving cache bypasses itself for such samples —
// and the first failure is also returned. Each backend's Epoch carries
// its own failure policy: a transport.RemoteShard's dial budget holds a
// dead shard to one dial per backoff window.
func (c *Cluster) EpochVector(dst []uint64) ([]uint64, error) {
	dst = dst[:0]
	var firstErr error
	for i, b := range c.backends {
		e, err := b.Epoch()
		if err != nil {
			e = EpochUnknown
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", i, err)
			}
		}
		dst = append(dst, e)
	}
	return dst, firstErr
}

// Failovers sums the backends' failed-over read counts (replica.Set
// members; plain backends contribute zero) — the cluster-wide count the
// serving layer surfaces as serve.Stats.Failovers.
func (c *Cluster) Failovers() int64 {
	var sum int64
	for _, b := range c.backends {
		sum += b.Failovers()
	}
	return sum
}

// Quiesce synchronously drains every shard's eligible compactions. All
// shards are attempted; the first error is returned.
func (c *Cluster) Quiesce() error {
	var firstErr error
	for i, b := range c.backends {
		if err := b.Quiesce(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return firstErr
}

// Close releases every backend (local compactors stop, remote clients
// disconnect). All backends are attempted; the first error is returned.
func (c *Cluster) Close() error {
	var firstErr error
	for i, b := range c.backends {
		if err := b.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return firstErr
}
