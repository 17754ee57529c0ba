// Live resharding: an online N→M shard migration that holds the same
// bar every distribution step before it held — the quiesced deployment
// at M shards ranks bit-identically to a cold rebuild at M. ShardOf is
// restart-stable by design, so changing the shard count reassigns
// authors wholesale; the Migration coordinator below moves every
// author's post log from its old owner to its new one while the
// deployment keeps serving reads and accepting writes.
//
// The scheme is drain + catch-up, sequenced by the logical write
// epoch of each source shard (its ingested-log length — global tweet
// ids are append-ordered, so "everything below offset k" is a
// prefix-closed write set):
//
//   - Start pins the per-shard drain floor at the base-corpus boundary
//     (the destination cluster is built over Partition(base, j, M), so
//     the base never travels) and freezes the from/to routing tables.
//   - Drain pages each source shard's ingested log through the
//     LogPager surface — over the wire that is the existing OpTweets
//     paging, server-side filtered to the destination shard — and
//     batch-ingests it into the destination. Writes keep landing on
//     the source; each catch-up round re-reads the source totals and
//     drains the delta, so the gap only shrinks.
//   - When a round moves nothing, the dual-read window opens: both
//     sides hold provably the same post multiset as of the last cut.
//     Reads keep routing to exactly one side — the source, complete by
//     construction — never both, because a query answered half from
//     each side would double-count denominators and break rankings.
//     NoteRead counts queries served inside the window.
//   - Cutover takes the write lock (writes pause for one bounded final
//     catch-up; reads never stop), drains the residue, and only swaps
//     the routing table after source and destination epochs agree:
//     every source shard's total equals its drained offset, and every
//     destination shard's total equals its base plus exactly the
//     posts handed to it. Then the swap is one atomic
//     pointer store and subsequent writes route at M.
//
// Any failure — a destination backend dying mid-drain, an epoch
// mismatch at the gate — aborts the migration cleanly: the source
// cluster received every accepted write and stays authoritative, the
// half-built destination is discarded by the caller, and nothing is
// half-applied anywhere reads can see it.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/microblog"
	"repro/internal/world"
)

// RoutingTable is one immutable version of the author→shard mapping:
// ShardOf at a pinned shard count, tagged with a version so the
// serving layer can report which table a deployment is routing on and
// a migration can prove it swapped exactly once: a Migration's source
// table is version 1, its destination version 2.
type RoutingTable struct {
	// Version is the table's monotone version number.
	Version uint64
	// Shards is the shard count the table routes over.
	Shards int
}

// Owner returns the shard that owns the author under this table.
func (t RoutingTable) Owner(u world.UserID) int { return ShardOf(u, t.Shards) }

// LogPager is implemented by backends whose ingested post log can be
// paged out for handoff — Local reads its own snapshots,
// transport.RemoteShard reuses the OpTweets paging. It is the entire
// surface a Migration needs from a shard: a source's log is drained
// through it, and a destination's totals are checked through it at the
// cutover gate, so NewMigration refuses a shard on either side that
// lacks it.
type LogPager interface {
	// PagePosts returns one page of the shard's post log starting at
	// global id from. scanned is how many ids the page consumed
	// (advance from by scanned, not len(posts)); total is the shard's
	// current log length. When filterShards > 0 only posts whose
	// author maps to filterIdx under ShardOf(·, filterShards) are
	// returned — the per-author handoff filter, applied where the
	// posts live so only moving content crosses the wire. max bounds
	// scanned; max <= 0 returns an empty page (a cheap total probe).
	PagePosts(from, max, filterShards, filterIdx int) (posts []microblog.Post, scanned, total int, err error)
	// BasePosts returns the shard's frozen base-corpus size — the
	// drain floor: ingested content occupies ids [BasePosts, total).
	BasePosts() (int, error)
}

// PagePosts implements LogPager over the local index's snapshot; the
// remote OpTweets handler answers with it server-side. A negative from
// is outside the log and pages nothing, like one past its end.
func (l *Local) PagePosts(from, max, filterShards, filterIdx int) ([]microblog.Post, int, int, error) {
	snap := l.idx.Snapshot()
	total := snap.NumTweets()
	if max <= 0 || from < 0 || from >= total {
		return nil, 0, total, nil
	}
	var posts []microblog.Post
	scanned := 0
	for gid := from; gid < total && scanned < max; gid++ {
		scanned++
		tw := snap.Tweet(microblog.TweetID(gid))
		if filterShards > 0 && ShardOf(tw.Author, filterShards) != filterIdx {
			continue
		}
		posts = append(posts, microblog.Post{
			Author:       tw.Author,
			Text:         tw.Text,
			Mentions:     tw.Mentions,
			RetweetCount: tw.RetweetCount,
			Topic:        tw.Topic,
		})
	}
	return posts, scanned, total, nil
}

// BasePosts implements LogPager.
func (l *Local) BasePosts() (int, error) { return l.idx.Base().NumTweets(), nil }

var _ LogPager = (*Local)(nil)

// MigrationState is where a Migration is in its lifecycle.
type MigrationState int32

// The migration state machine: Idle → Draining → WindowOpen → Done,
// with Aborted reachable from every non-terminal state.
const (
	// MigrationIdle: constructed, Start not yet called.
	MigrationIdle MigrationState = iota
	// MigrationDraining: handoff streams are paging the source logs.
	MigrationDraining
	// MigrationWindowOpen: the dual-read window — a catch-up round
	// moved nothing, so both sides hold the same posts as of the last
	// cut; reads still route to the source, and NoteRead counts them.
	MigrationWindowOpen
	// MigrationDone: the routing table swapped; the destination owns
	// all reads and writes.
	MigrationDone
	// MigrationAborted: the migration failed or was cancelled; the
	// source is untouched and authoritative, the destination is trash.
	MigrationAborted
)

// String names the state for stats and logs.
func (s MigrationState) String() string {
	switch s {
	case MigrationIdle:
		return "idle"
	case MigrationDraining:
		return "draining"
	case MigrationWindowOpen:
		return "window-open"
	case MigrationDone:
		return "done"
	case MigrationAborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ErrMigrationAborted is returned by migration phases that found the
// migration already aborted (by a fault in another stream, or by
// Abort). The underlying cause is available from Err.
var ErrMigrationAborted = errors.New("shard: migration aborted")

// maxCatchUp caps how many catch-up rounds Drain runs before handing
// the (still shrinking) residue to Cutover's final locked round.
const maxCatchUp = 8

// MigrationConfig tunes a Migration. The zero value works.
type MigrationConfig struct {
	// PageSize bounds how many log entries one handoff page scans.
	// Zero means 1024.
	PageSize int
	// Cutover, when non-nil, runs under the write lock at the instant
	// the routing table swaps — wire it to
	// core.ShardedLiveDetector.SwapCluster so the read path moves in
	// the same atomic step as the write path.
	Cutover func(to *Cluster)
}

// MigrationStats is a point-in-time snapshot of migration progress.
type MigrationStats struct {
	// State is the migration's current lifecycle state.
	State MigrationState
	// FromShards and ToShards are the two shard counts.
	FromShards, ToShards int
	// TableVersion is the routing table version currently in force
	// (from before cutover, to after).
	TableVersion uint64
	// AuthorsMoving counts authors whose owner changes between the
	// tables — fixed at Start.
	AuthorsMoving int64
	// PostsStreamed and BytesStreamed measure drained handoff volume
	// (bytes are approximate payload bytes, not wire frames).
	PostsStreamed, BytesStreamed int64
	// CatchUpRounds counts completed drain rounds, including the final
	// locked round inside Cutover.
	CatchUpRounds int64
	// WindowHits counts queries NoteRead observed inside the dual-read
	// window.
	WindowHits int64
	// Err is the abort cause, empty unless State is aborted.
	Err string
}

// Migration coordinates one online N→M reshard between two clusters
// over the same world: src (serving, at N) and dst (freshly built over
// Partition(base, j, M), at M). All writes during the migration must
// flow through Migration.IngestBatch — it is the write path's routing
// table. Reads keep going to the source cluster until the Cutover
// callback swaps them. Safe for concurrent use.
type Migration struct {
	src, dst *Cluster
	cfg      MigrationConfig
	// srcLog and dstLog are the clusters' backends as LogPagers, in
	// shard order, resolved once by NewMigration.
	srcLog, dstLog []LogPager

	from, to RoutingTable
	table    atomic.Pointer[RoutingTable]

	// mu orders writes against state transitions: IngestBatch holds RLock,
	// Start/Cutover/Abort hold Lock. state is atomic so drain streams
	// and NoteRead can observe it without the lock.
	mu    sync.RWMutex
	state atomic.Int32

	drained  []atomic.Int64 // per-src-shard drain offset (global ids)
	received []atomic.Int64 // per-dst-shard posts handed over

	authorsMoving atomic.Int64
	postsStreamed atomic.Int64
	bytesStreamed atomic.Int64
	rounds        atomic.Int64
	windowHits    atomic.Int64

	errMu    sync.Mutex
	abortErr error
}

// NewMigration validates the pair of clusters and returns an idle
// Migration. Every backend of both clusters must implement LogPager
// (Local and transport.RemoteShard both do); the clusters must share a
// world.
func NewMigration(src, dst *Cluster, cfg MigrationConfig) (*Migration, error) {
	if src == nil || dst == nil {
		return nil, errors.New("shard: migration needs both clusters")
	}
	if src.World() != dst.World() {
		return nil, errors.New("shard: migration clusters disagree on the world")
	}
	srcLog, err := logPagers(src, "source")
	if err != nil {
		return nil, err
	}
	dstLog, err := logPagers(dst, "destination")
	if err != nil {
		return nil, err
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 1024
	}
	m := &Migration{
		src:      src,
		dst:      dst,
		cfg:      cfg,
		srcLog:   srcLog,
		dstLog:   dstLog,
		from:     RoutingTable{Version: 1, Shards: src.NumShards()},
		to:       RoutingTable{Version: 2, Shards: dst.NumShards()},
		drained:  make([]atomic.Int64, src.NumShards()),
		received: make([]atomic.Int64, dst.NumShards()),
	}
	m.table.Store(&m.from)
	return m, nil
}

// logPagers returns c's backends as LogPagers, in shard order, or an
// error naming the first shard that cannot page its log.
func logPagers(c *Cluster, side string) ([]LogPager, error) {
	pagers := make([]LogPager, c.NumShards())
	for i := range pagers {
		p, ok := c.Backend(i).(LogPager)
		if !ok {
			return nil, fmt.Errorf("shard: %s shard %d cannot page its log", side, i)
		}
		pagers[i] = p
	}
	return pagers, nil
}

// Table returns the routing table currently in force: from before
// cutover, to after.
func (m *Migration) Table() RoutingTable { return *m.table.Load() }

// State returns the migration's current lifecycle state.
func (m *Migration) State() MigrationState { return MigrationState(m.state.Load()) }

// Err returns the abort cause, nil unless the migration aborted.
func (m *Migration) Err() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.abortErr
}

// fail records the first abort cause and moves the state machine to
// Aborted from whatever non-terminal state it is in.
func (m *Migration) fail(err error) {
	m.errMu.Lock()
	if m.abortErr == nil {
		m.abortErr = err
	}
	m.errMu.Unlock()
	for {
		s := m.state.Load()
		if MigrationState(s) == MigrationDone || MigrationState(s) == MigrationAborted {
			return
		}
		if m.state.CompareAndSwap(s, int32(MigrationAborted)) {
			return
		}
	}
}

// Abort cancels the migration: the source stays authoritative, the
// destination should be discarded. Idempotent; aborting a Done
// migration is a no-op.
func (m *Migration) Abort() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.State() != MigrationDone {
		m.fail(errors.New("shard: migration cancelled"))
	}
}

// Start freezes the drain floors (each source shard's base boundary)
// and opens the migration: writes keep routing to the source, and the
// handoff streams may begin.
func (m *Migration) Start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.State(); s != MigrationIdle {
		return fmt.Errorf("shard: migration start in state %v", s)
	}
	for i, pager := range m.srcLog {
		base, err := pager.BasePosts()
		if err != nil {
			m.fail(fmt.Errorf("shard: migration start: shard %d base: %w", i, err))
			return m.Err()
		}
		m.drained[i].Store(int64(base))
	}
	var moving int64
	users := m.src.World().Users
	for u := range users {
		uid := world.UserID(u)
		if m.from.Owner(uid) != m.to.Owner(uid) {
			moving++
		}
	}
	m.authorsMoving.Store(moving)
	m.state.Store(int32(MigrationDraining))
	return nil
}

// pairFeasible reports whether any author can move from source shard i
// of n to destination shard j of m. Because ShardOf is a plain modular
// hash, integer-ratio reshards have sparse feasible pairs: growing to
// m = k·n, an author of source i can only land on j ≡ i (mod n);
// shrinking from n = k·m, all of source i lands on j = i mod m. Other
// ratios admit every pair.
func pairFeasible(i, n, j, m int) bool {
	switch {
	case m >= n && m%n == 0:
		return j%n == i
	case n > m && n%m == 0:
		return i%m == j
	default:
		return true
	}
}

// approxPostBytes estimates a post's handoff payload size.
func approxPostBytes(p *microblog.Post) int64 {
	return int64(len(p.Text) + 8*len(p.Mentions) + 16)
}

// drainRange streams source shard i's log window [from, to) into every
// feasible destination shard, paging with the per-author filter so
// only that destination's content is returned. locked is true inside
// Cutover's final round, where an asynchronous abort can no longer
// happen (the write lock is held).
func (m *Migration) drainRange(i, from, to int, locked bool) error {
	if from >= to {
		return nil
	}
	pager := m.srcLog[i]
	n, mm := m.from.Shards, m.to.Shards
	for j := 0; j < mm; j++ {
		if !pairFeasible(i, n, j, mm) {
			continue
		}
		dst := m.dst.Backend(j)
		for at := from; at < to; {
			if !locked && m.State() != MigrationDraining {
				return ErrMigrationAborted
			}
			max := m.cfg.PageSize
			if rem := to - at; rem < max {
				max = rem
			}
			posts, scanned, _, err := pager.PagePosts(at, max, mm, j)
			if err != nil {
				return fmt.Errorf("shard: drain %d→%d page at %d: %w", i, j, at, err)
			}
			if scanned == 0 {
				return fmt.Errorf("shard: drain %d→%d: log shrank at %d (total below cut %d)", i, j, at, to)
			}
			if len(posts) > 0 {
				if err := dst.IngestBatch(posts); err != nil {
					return fmt.Errorf("shard: drain %d→%d ingest at %d: %w", i, j, at, err)
				}
				var bytes int64
				for k := range posts {
					bytes += approxPostBytes(&posts[k])
				}
				m.postsStreamed.Add(int64(len(posts)))
				m.bytesStreamed.Add(bytes)
				m.received[j].Add(int64(len(posts)))
			}
			at += scanned
		}
	}
	m.drained[i].Store(int64(to))
	return nil
}

// drainPass runs one catch-up round: every source shard drains, in
// parallel, from its drained offset up to its current total. It
// returns how many log entries the round consumed across all shards.
func (m *Migration) drainPass(locked bool) (int64, error) {
	n := m.src.NumShards()
	var wg sync.WaitGroup
	var consumed atomic.Int64
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		from := int(m.drained[i].Load())
		_, _, total, err := m.srcLog[i].PagePosts(from, 0, 0, 0)
		if err != nil {
			return consumed.Load(), fmt.Errorf("shard: drain probe shard %d: %w", i, err)
		}
		if total <= from {
			continue
		}
		wg.Add(1)
		go func(i, from, total int) {
			defer wg.Done()
			errs[i] = m.drainRange(i, from, total, locked)
			if errs[i] == nil {
				consumed.Add(int64(total - from))
			}
		}(i, from, total)
	}
	wg.Wait()
	m.rounds.Add(1)
	for _, err := range errs {
		if err != nil {
			return consumed.Load(), err
		}
	}
	return consumed.Load(), nil
}

// Drain runs catch-up rounds until one moves nothing (the dual-read
// window opens) or maxCatchUp rounds have run (Cutover will drain the
// residue under the write lock). Writes continue throughout; any
// destination failure aborts the migration with the source untouched.
func (m *Migration) Drain() error {
	if s := m.State(); s != MigrationDraining {
		if s == MigrationAborted {
			return m.abortCause()
		}
		return fmt.Errorf("shard: migration drain in state %v", s)
	}
	for r := 0; r < maxCatchUp; r++ {
		consumed, err := m.drainPass(false)
		if err != nil {
			m.fail(err)
			return m.abortCause()
		}
		if consumed == 0 {
			break
		}
	}
	if !m.state.CompareAndSwap(int32(MigrationDraining), int32(MigrationWindowOpen)) {
		return m.abortCause()
	}
	return nil
}

// abortCause returns the recorded abort cause, falling back to
// ErrMigrationAborted.
func (m *Migration) abortCause() error {
	if err := m.Err(); err != nil {
		return err
	}
	return ErrMigrationAborted
}

// Cutover completes the migration: under the write lock (writes pause,
// reads do not) it drains the final residue, verifies that source and
// destination epochs agree — every source shard's total equals its
// drained offset, every destination shard's total equals its base plus
// exactly the posts handed to it — and only then swaps
// the routing table and runs the Cutover callback. Any disagreement
// aborts with the source authoritative.
func (m *Migration) Cutover() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.State(); s != MigrationWindowOpen {
		if s == MigrationAborted {
			return m.abortCause()
		}
		return fmt.Errorf("shard: migration cutover in state %v", s)
	}
	if _, err := m.drainPass(true); err != nil {
		m.fail(err)
		return m.abortCause()
	}
	for i, pager := range m.srcLog {
		_, _, total, err := pager.PagePosts(0, 0, 0, 0)
		if err != nil {
			m.fail(fmt.Errorf("shard: cutover probe shard %d: %w", i, err))
			return m.abortCause()
		}
		if got := m.drained[i].Load(); got != int64(total) {
			m.fail(fmt.Errorf("shard: cutover gate: source shard %d epoch %d, drained %d", i, total, got))
			return m.abortCause()
		}
	}
	for j, pager := range m.dstLog {
		base, err := pager.BasePosts()
		if err != nil {
			m.fail(fmt.Errorf("shard: cutover probe dst %d: %w", j, err))
			return m.abortCause()
		}
		_, _, total, err := pager.PagePosts(0, 0, 0, 0)
		if err != nil {
			m.fail(fmt.Errorf("shard: cutover probe dst %d: %w", j, err))
			return m.abortCause()
		}
		if want := int64(base) + m.received[j].Load(); int64(total) != want {
			m.fail(fmt.Errorf("shard: cutover gate: dst shard %d epoch %d, want %d", j, total, want))
			return m.abortCause()
		}
	}
	m.state.Store(int32(MigrationDone))
	m.table.Store(&m.to)
	if m.cfg.Cutover != nil {
		m.cfg.Cutover(m.dst)
	}
	return nil
}

// Run is Start, Drain and Cutover in sequence — the whole migration as
// one call for callers that do not need to observe the window.
func (m *Migration) Run() error {
	if err := m.Start(); err != nil {
		return err
	}
	if err := m.Drain(); err != nil {
		return err
	}
	return m.Cutover()
}

// NoteRead records one query routed while the dual-read window is
// open; the read path calls it on every query so the window is
// observable (MigrationStats.WindowHits).
func (m *Migration) NoteRead() {
	if m.State() == MigrationWindowOpen {
		m.windowHits.Add(1)
	}
}

// IngestBatch is the deployment's write path during the migration:
// writes route by the routing table in force — source cluster before
// cutover, destination after — under a read lock so Cutover's gate can
// exclude in-flight writes. A routing failure aborts the migration
// (observable via Err) and fails the batch.
func (m *Migration) IngestBatch(posts []microblog.Post) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := m.src
	if m.State() == MigrationDone {
		c = m.dst
	}
	if err := c.IngestBatch(posts); err != nil {
		err = fmt.Errorf("shard: migration write: %w", err)
		m.fail(err)
		return err
	}
	return nil
}

// Stats snapshots migration progress.
func (m *Migration) Stats() MigrationStats {
	st := MigrationStats{
		State:         m.State(),
		FromShards:    m.from.Shards,
		ToShards:      m.to.Shards,
		TableVersion:  m.Table().Version,
		AuthorsMoving: m.authorsMoving.Load(),
		PostsStreamed: m.postsStreamed.Load(),
		BytesStreamed: m.bytesStreamed.Load(),
		CatchUpRounds: m.rounds.Load(),
		WindowHits:    m.windowHits.Load(),
	}
	if err := m.Err(); err != nil {
		st.Err = err.Error()
	}
	return st
}
