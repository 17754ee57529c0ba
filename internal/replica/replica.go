// Package replica adds redundancy under the shard layer: a Set fronts
// one primary plus N followers — any mix of shard.Local and
// transport.RemoteShard — behind the same shard.Backend interface the
// scatter-gather detector and the Cluster already speak, so replication
// drops in per shard with zero changes to the read path above it.
// Before this layer a dead shard meant fail-fast partial results; with
// a Set in front, reads fail over to the next replica and the query
// stays whole.
//
// Write path: IngestBatch is the only write verb (a single post is a
// batch of one). Every batch lands on the primary first — a primary
// failure fails the write, full stop, and because the failure is
// ambiguous (a remote primary may have applied any prefix of the batch
// before the response was lost) the set presumes the primary holds it:
// the logical epoch advances, the followers are ejected, and reads
// route to the primary alone until re-wired (see failedPrimaryWrite) —
// and is then replicated synchronously to each follower (for a remote
// one, the same OpIngest frames routed ingest uses). A follower that
// misses a write is ejected from the read set permanently (until
// re-wired): it has a gap the Set cannot repair without a replay log,
// and serving reads from it would silently skew rankings — exactly the
// failure mode the bit-identical bar exists to catch. Ejected followers
// also stop receiving writes, so their content stays a clean prefix of
// the primary's. Writes are never retried and never fail over to a
// follower: a post applied to a follower but not the primary would
// diverge the replicas, and a blind re-send could duplicate a post the
// replica already holds (the transport's write-non-retry rule, kept at
// this layer too).
//
// Read path: replicas are compared by their replication epochs — the
// per-replica count of writes applied, maintained by the Set, which is
// the coordinator and sole writer. Reads rotate across the freshest
// reachable replicas (applied == the set's logical epoch; the primary
// is always freshest by construction) and fall over to the next on
// error instead of surfacing a partial result. A failing replica enters
// a decaying backoff window (shard.Health): while the window is open,
// reads skip it without dialing — one probe per window, so a dead
// follower costs one dial per window, not one timeout per query — and
// a successful probe restores it to the rotation. A stale follower
// (epoch gap) is rejected outright; those reads route to the primary.
// The view a read hands out stays the Set's: a replica that fails the
// view's top-up Stats is marked failed like one that fails a search, so
// the detector's re-run of the query (see core.ShardedLiveDetector)
// skips it.
//
// View identity: the Set's Epoch is its logical write epoch — a
// coordinator-side counter bumped once per accepted write — not any
// replica's internal index epoch. Replica index epochs advance on
// background seals and compactions at each replica's own pace, so they
// are not comparable across connections; the logical epoch is
// replica-independent, which makes failover invisible to the serving
// cache: an entry tagged before a failover is still valid after it
// (same logical epoch), and a subsequent write invalidates it exactly
// as a single-node epoch bump would. Compactions no longer invalidate
// cache entries at all, which is sound because compaction never changes
// results. Sampling the logical epoch touches no replica, so a
// replicated shard can never contribute an EpochUnknown component.
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/expertise"
	"repro/internal/microblog"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/world"
)

// ErrNoReplica reports a read with no admissible replica: every
// up-to-date replica is inside a failure-backoff window (or has
// already failed this read). The shard is unreachable for this query;
// the scatter-gather detector degrades exactly as it would for a
// failed plain backend.
var ErrNoReplica = errors.New("replica: no reachable up-to-date replica")

// Config tunes a Set.
type Config struct {
	// Backoff tunes the per-replica failure windows (shard.Health).
	// Zero fields take shard.DefaultBackoff.
	Backoff shard.Backoff
	// Obs, when non-nil, exports the set's failure accounting into the
	// registry: replica_failovers, replica_ejections (followers dropped
	// from the read set by a missed write), replica_backoff_skips
	// (reads that bypassed a replica inside its failure window without
	// dialing) and replica_primary_write_failures. Handles are
	// get-or-create by name, so every Set sharing one registry — one
	// per shard in a replicated cluster — aggregates into the same
	// rows. Nil costs the read path nothing.
	Obs *obs.Registry
}

// DefaultConfig returns the replication defaults.
func DefaultConfig() Config { return Config{Backoff: shard.DefaultBackoff()} }

// Set is a replicated shard: one primary plus N followers behind the
// shard.Backend interface. See the package comment for the write,
// read and view-identity contracts. Safe for concurrent use — writes
// serialize on an internal mutex (mirroring the single-index write
// path), reads are lock-free.
type Set struct {
	replicas []shard.Backend
	health   []*shard.Health

	// epoch is the logical write epoch: the number of writes this Set
	// has accepted (== the primary's applied count). It identifies the
	// set's view to the serving cache.
	epoch atomic.Uint64
	// applied[i] counts writes replica i has applied. applied[0] always
	// equals epoch; a follower with applied[i] < epoch is stale and out
	// of the read set.
	applied []atomic.Uint64

	// wmu serializes the write path: primary apply, follower fan-out
	// and the epoch bump form one atomic step with respect to other
	// writers.
	wmu sync.Mutex

	rr        atomic.Uint64 // read rotation cursor
	failovers atomic.Int64
	reads     []atomic.Int64 // per-replica served searches
	views     sync.Pool      // of *setView, reused across reads

	// Observability (nil without Config.Obs; all handles nil-safe):
	// cluster-wide failure accounting, aggregated across Sets sharing a
	// registry.
	obsFailovers        *obs.Counter
	obsEjections        *obs.Counter
	obsBackoffSkips     *obs.Counter
	obsPrimaryWriteFail *obs.Counter
}

// Set must satisfy the same interface a plain shard does — that is
// the whole point.
var _ shard.Backend = (*Set)(nil)

// NewSet fronts replicas[0] as the primary and the rest as followers.
// Every replica must hold the identical shard content at wiring time
// (the same base partition; for remote replicas the transport
// handshake checks the coordinates — see topology.Build).
func NewSet(replicas []shard.Backend, cfg Config) (*Set, error) {
	if len(replicas) == 0 {
		return nil, errors.New("replica: a set needs at least a primary")
	}
	s := &Set{
		replicas: replicas,
		health:   make([]*shard.Health, len(replicas)),
		applied:  make([]atomic.Uint64, len(replicas)),
		reads:    make([]atomic.Int64, len(replicas)),
	}
	for i := range s.health {
		s.health[i] = shard.NewHealth(cfg.Backoff)
	}
	s.views.New = func() any { return &setView{set: s} }
	if cfg.Obs != nil {
		s.obsFailovers = cfg.Obs.Counter("replica_failovers")
		s.obsEjections = cfg.Obs.Counter("replica_ejections")
		s.obsBackoffSkips = cfg.Obs.Counter("replica_backoff_skips")
		s.obsPrimaryWriteFail = cfg.Obs.Counter("replica_primary_write_failures")
	}
	return s, nil
}

// NumReplicas returns the replica count (primary included).
func (s *Set) NumReplicas() int { return len(s.replicas) }

// Primary returns the primary replica.
func (s *Set) Primary() shard.Backend { return s.replicas[0] }

// Replica returns the i-th replica (0 is the primary).
func (s *Set) Replica(i int) shard.Backend { return s.replicas[i] }

// Health returns replica i's failure-backoff state.
func (s *Set) Health(i int) *shard.Health { return s.health[i] }

// EpochIsLocal marks the set's epoch as a process-local read: the
// logical write epoch is a coordinator-side counter, so sampling it
// never touches a replica — a Cluster of Sets samples its whole epoch
// vector without a single RPC, even when every replica is remote.
func (s *Set) EpochIsLocal() bool { return true }

// Epoch implements shard.Backend: the logical write epoch (writes
// accepted by this Set), which identifies the set's view to the
// serving cache. It cannot fail and never dials.
func (s *Set) Epoch() (uint64, error) { return s.epoch.Load(), nil }

// Failovers implements shard.Backend: reads answered by a
// non-first-choice replica after at least one replica failed.
func (s *Set) Failovers() int64 { return s.failovers.Load() }

// failedPrimaryWrite records an ambiguous primary write (the error
// may have arrived after the primary applied it — the lost-response
// case the transport's write-non-retry rule exists for). The primary
// is *presumed* to hold the writes: it is the authoritative copy
// either way, so reads must route only to it — the logical epoch and
// the primary's applied count advance together while every follower
// falls behind (ejected) — and the epoch bump invalidates any cache
// entry computed before the suspect write. If the primary in fact
// never applied it (a clean dial failure), the ejections cost
// redundancy, never correctness: reads still serve exactly the
// primary's content, which matches what the caller was told (the
// write failed). Called with wmu held.
func (s *Set) failedPrimaryWrite(n uint64) {
	s.health[0].Fail()
	s.applied[0].Add(n)
	s.epoch.Add(n)
	s.obsPrimaryWriteFail.Inc()
	// The epoch advance ejects every follower still in the read set.
	s.obsEjections.Add(int64(len(s.replicas) - 1))
}

// IngestBatch implements shard.Backend — the package comment's write
// path, in its one body: primary first (failedPrimaryWrite on error),
// then every up-to-date follower; a follower that fails the replication
// is ejected and marked down while the write still succeeds. The batch
// counts as len(posts) writes.
func (s *Set) IngestBatch(posts []microblog.Post) error {
	if len(posts) == 0 {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	n := uint64(len(posts))
	before := s.epoch.Load()
	if err := s.replicas[0].IngestBatch(posts); err != nil {
		s.failedPrimaryWrite(n)
		return fmt.Errorf("replica: primary ingest: %w", err)
	}
	s.health[0].Ok()
	s.applied[0].Add(n)
	s.epoch.Add(n)
	for i := 1; i < len(s.replicas); i++ {
		if s.applied[i].Load() != before {
			continue // already stale: stop feeding it
		}
		if err := s.replicas[i].IngestBatch(posts); err != nil {
			s.health[i].Fail()
			s.obsEjections.Inc()
			continue // ejected: applied[i] stays behind epoch for good
		}
		s.applied[i].Add(n)
	}
	return nil
}

// read runs one read against the freshest reachable replicas —
// rotation spreads load across the primary and every up-to-date
// follower — and falls over to the next replica on error instead of
// failing the shard. A stale follower is never read. A replica inside a
// backoff window is skipped without dialing (one probe per window
// re-admits a recovered replica). Only when every admissible replica
// has failed does the shard fail for this query. It returns the index
// of the replica that answered.
func (s *Set) read(attempt func(r shard.Backend) error) (int, error) {
	epoch := s.epoch.Load()
	n := len(s.replicas)
	// Reduce the cursor in uint64 space: a raw int conversion would
	// eventually go negative and make the modulo below a panic.
	start := int(s.rr.Add(1) % uint64(n))
	var firstErr error
	tried := 0
	for k := 0; k < n; k++ {
		i := (start + k) % n
		// Freshness: a replica behind the logical epoch has missed a
		// write; reading it would un-count posts the caller already
		// observed as accepted. (A replica *ahead* of the sampled epoch
		// raced a concurrent write — it holds a superset, which is the
		// same monotonic-forward-step the epoch rules allow.)
		if s.applied[i].Load() < epoch {
			continue
		}
		if !s.health[i].Allow() {
			s.obsBackoffSkips.Inc()
			continue
		}
		err := attempt(s.replicas[i])
		if err == nil {
			s.health[i].Ok()
			s.reads[i].Add(1)
			if tried > 0 {
				s.failovers.Add(1)
				s.obsFailovers.Inc()
			}
			return i, nil
		}
		s.health[i].Fail()
		tried++
		if firstErr == nil {
			firstErr = fmt.Errorf("replica %d: %w", i, err)
		}
	}
	if firstErr == nil {
		firstErr = ErrNoReplica
	}
	return -1, firstErr
}

// setView is the view a read hands out: replica i's, watched, so that a
// failed top-up marks the replica failed. It is pooled on the Set and
// returns there on Release.
type setView struct {
	set *Set
	i   int
	v   shard.View
}

// view wraps replica i's view v.
func (s *Set) view(i int, v shard.View) shard.View {
	w := s.views.Get().(*setView)
	w.i, w.v = i, v
	return w
}

// Stats implements shard.View: replica i's Stats, whose failure opens
// the replica's backoff window.
func (w *setView) Stats(ctx context.Context, users []world.UserID, dst []expertise.UserStats) ([]expertise.UserStats, error) {
	dst, err := w.v.Stats(ctx, users, dst)
	if err != nil {
		w.set.health[w.i].Fail()
	}
	return dst, err
}

// Release implements shard.View.
func (w *setView) Release() {
	w.v.Release()
	w.v = nil
	w.set.views.Put(w)
}

// Search implements shard.Backend: SearchStats with the stats dropped.
func (s *Set) Search(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate) ([]expertise.RawCandidate, int, shard.View, error) {
	rows, matched, _, v, err := s.SearchStats(ctx, terms, extended, raw, nil)
	return rows, matched, v, err
}

// SearchStats implements shard.Backend — the read path's call — with
// the rotation and failover of read, so a replicated remote shard keeps
// the one-round-trip composite query.
func (s *Set) SearchStats(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate, stats []expertise.UserStats) ([]expertise.RawCandidate, int, []expertise.UserStats, shard.View, error) {
	var matched int
	var v shard.View
	i, err := s.read(func(r shard.Backend) (err error) {
		raw, matched, stats, v, err = r.SearchStats(ctx, terms, extended, raw[:0], stats[:0])
		return err
	})
	if err != nil {
		return raw[:0], 0, stats[:0], nil, err
	}
	return raw, matched, stats, s.view(i, v), nil
}

// Quiesce implements shard.Backend: the primary is always drained —
// its backoff window is bypassed, because a silently skipped primary
// would let a caller believe the quiesced-state equivalence bar holds
// when the drain never ran — and every follower outside a backoff
// window is drained too. Only a primary failure is an error: an
// unreachable follower is already out of the read set, and an
// un-drained one changes segment layout, never results.
func (s *Set) Quiesce() error {
	var firstErr error
	for i, r := range s.replicas {
		if i > 0 && !s.health[i].Allow() {
			continue
		}
		if err := r.Quiesce(); err != nil {
			s.health[i].Fail()
			if i == 0 && firstErr == nil {
				firstErr = fmt.Errorf("replica: primary quiesce: %w", err)
			}
			continue
		}
		s.health[i].Ok()
	}
	return firstErr
}

// Close implements shard.Backend: every replica is closed; the first
// error is returned.
func (s *Set) Close() error {
	var firstErr error
	for i, r := range s.replicas {
		if err := r.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("replica %d: %w", i, err)
		}
	}
	return firstErr
}

// Stats is a point-in-time snapshot of a Set's replication state.
type Stats struct {
	// Replicas is the replica count, primary included.
	Replicas int
	// Epoch is the logical write epoch (writes accepted by the Set).
	Epoch uint64
	// Applied holds each replica's applied write count; Applied[0]
	// always equals Epoch.
	Applied []uint64
	// Stale flags replicas ejected from the read set by an epoch gap.
	Stale []bool
	// Healthy flags replicas outside any failure-backoff window.
	Healthy []bool
	// Reads counts searches each replica has served.
	Reads []int64
	// Failovers counts reads answered by a non-first-choice replica
	// after at least one replica failed.
	Failovers int64
}

// Stats snapshots the set's replication counters.
func (s *Set) Stats() Stats {
	st := Stats{
		Replicas:  len(s.replicas),
		Epoch:     s.epoch.Load(),
		Failovers: s.failovers.Load(),
	}
	for i := range s.replicas {
		a := s.applied[i].Load()
		st.Applied = append(st.Applied, a)
		st.Stale = append(st.Stale, a < st.Epoch)
		st.Healthy = append(st.Healthy, s.health[i].Healthy())
		st.Reads = append(st.Reads, s.reads[i].Load())
	}
	return st
}
