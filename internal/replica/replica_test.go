// The replication test suite: the chaos-style contracts — reads fail
// over and never duplicate writes, stale followers are rejected from
// the read set, a lost response is never retried, and a dead replica
// costs one probe per backoff window. The equivalence spine over
// replicated layouts (followers behind loopback, a follower killed
// mid-load, replicas spilling to disk) is held by the root package's
// topology matrix.
package replica_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expertise"
	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/transport"
)

var (
	pipeOnce sync.Once
	pipe     *core.Pipeline
	pipeSets []eval.QuerySet
	pipeErr  error
)

func testPipeline(t testing.TB) (*core.Pipeline, []eval.QuerySet) {
	t.Helper()
	pipeOnce.Do(func() {
		pipe, pipeErr = core.BuildPipeline(core.TinyPipelineConfig())
		if pipeErr == nil {
			pipeSets = eval.BuildQuerySets(pipe.World, pipe.Log,
				eval.SetSizes{PerCategory: 25, Top: 60})
		}
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe, pipeSets
}

func streamPosts(p *core.Pipeline, seed uint64, n int) []microblog.Post {
	s := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(seed))
	posts := make([]microblog.Post, n)
	for i := range posts {
		posts[i] = s.Next()
	}
	return posts
}

func expertsIdentical(t *testing.T, label, query string, got, want []expertise.Expert) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %q: %d results, reference has %d", label, query, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s %q rank %d:\n  got  %+v\n  want %+v", label, query, i, got[i], want[i])
		}
	}
}

// replCluster is one replicated deployment under test: n shards × r
// replicas, with handles into every layer the assertions need.
type replCluster struct {
	cluster *shard.Cluster
	sets    []*replica.Set
	// faults[i] wraps shard i's first follower when fault-wrapping was
	// requested; nil otherwise.
	faults []*fault.Backend
}

// newReplicated builds an n-shard × r-replica cluster of local indexes
// over each shard's base partition, primary first. When wrapFollowers
// is set, each shard's first follower sits behind a fault.Backend gate.
// (Followers behind loopback TCP are rows of the root package's
// topology matrix.)
func newReplicated(t testing.TB, p *core.Pipeline, n, r int, icfg ingest.Config,
	cfg replica.Config, wrapFollowers bool) *replCluster {
	t.Helper()
	rc := &replCluster{
		sets:   make([]*replica.Set, n),
		faults: make([]*fault.Backend, n),
	}
	backends := make([]shard.Backend, n)
	for i := 0; i < n; i++ {
		part := shard.Partition(p.Corpus, i, n)
		members := []shard.Backend{shard.NewLocal(ingest.New(part, icfg))}
		for j := 1; j < r; j++ {
			var member shard.Backend = shard.NewLocal(ingest.New(part, icfg))
			if wrapFollowers && j == 1 {
				f := fault.Wrap(member)
				rc.faults[i] = f
				member = f
			}
			members = append(members, member)
		}
		set, err := replica.NewSet(members, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rc.sets[i] = set
		backends[i] = set
	}
	rc.cluster = shard.NewCluster(p.World, backends...)
	t.Cleanup(func() { rc.cluster.Close() })
	return rc
}

// TestFailoverReadsNeverDuplicateWrites pins two halves of the write
// contract around a read failover: (a) reads failing over to the
// primary never re-send — or send at all — any write to the failed
// follower, and (b) a healed follower that missed no writes is
// re-admitted to the read rotation by one successful probe after its
// backoff window (the decaying-backoff recovery path).
func TestFailoverReadsNeverDuplicateWrites(t *testing.T) {
	p, _ := testPipeline(t)
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}
	cfg := replica.Config{Backoff: shard.Backoff{Initial: 50 * time.Millisecond, Max: 50 * time.Millisecond}}
	rc := newReplicated(t, p, 1, 2, icfg, cfg, true)
	set, f := rc.sets[0], rc.faults[0]

	posts := streamPosts(p, 91, 60)
	for _, post := range posts {
		if err := rc.cluster.IngestBatch([]microblog.Post{post}); err != nil {
			t.Fatal(err)
		}
	}
	writesBefore := f.Ingests()
	if writesBefore == 0 {
		t.Fatal("follower received no replicated writes while healthy")
	}

	// Reference results over the identical content, computed before the
	// kill so every failover read can be checked against them.
	det := core.NewShardedLiveDetectorOver(p.Collection, rc.cluster, p.Cfg.Online)
	if err := rc.cluster.Quiesce(); err != nil {
		t.Fatal(err)
	}
	queries := []string{"49ers", "nfl", "diabetes", "coffee"}
	want := make(map[string][]expertise.Expert, len(queries))
	for _, q := range queries {
		want[q], _ = det.Search(q)
	}

	f.Kill()
	for round := 0; round < 8; round++ {
		for _, q := range queries {
			got, _ := det.Search(q)
			expertsIdentical(t, "failover-read", q, got, want[q])
		}
	}
	if pq, se := det.PartialStats(); pq != 0 || se != 0 {
		t.Fatalf("reads degraded instead of failing over: partial %d, errors %d", pq, se)
	}
	if fo := det.Failovers(); fo == 0 {
		t.Fatal("no failover was counted although the follower is dead")
	}
	// The load-bearing pin: the read failovers sent the dead follower
	// zero writes — the write path and the read failover machinery are
	// disjoint, so a failover can never duplicate (or originate) a post.
	if f.Ingests() != writesBefore || f.IngestsKilled() != 0 {
		t.Fatalf("read failovers touched the write path: %d→%d writes, %d refused",
			writesBefore, f.Ingests(), f.IngestsKilled())
	}
	// And the dead follower costs at most one probe per backoff window:
	// 32 reads above, two windows at most while killed.
	if probes := f.SearchesKilled(); probes > 3 {
		t.Fatalf("dead follower was probed %d times during backoff — reads are paying per-request again", probes)
	}

	// Heal: the follower missed no writes (none happened while it was
	// down), so one successful probe after the window re-admits it.
	f.Heal()
	time.Sleep(60 * time.Millisecond)
	readsBefore := set.Stats().Reads[1]
	for round := 0; round < 6; round++ {
		for _, q := range queries {
			got, _ := det.Search(q)
			expertsIdentical(t, "healed-read", q, got, want[q])
		}
	}
	if readsAfter := set.Stats().Reads[1]; readsAfter <= readsBefore {
		t.Fatalf("healed follower served no reads (%d before, %d after) — backoff never decayed",
			readsBefore, readsAfter)
	}
	if st := set.Stats(); st.Stale[1] {
		t.Fatalf("follower with no missed writes is flagged stale: %+v", st)
	}
	// Every read above — served, refused or probing — reached the gate
	// as the composite call production makes: the faults landed on the
	// path deployments run.
	if f.Composites() == 0 {
		t.Fatal("follower saw no composite calls")
	}
}

// TestFollowerDiesBetweenPhases scripts the interleaving behind a flaky
// matrix row: a follower answers a query's scatter, then fails the
// top-up on the view it handed out. The Set marks that follower failed,
// the detector re-runs the scatter, and the query stays whole — no
// partial, one failover, the cold detector's ranking.
func TestFollowerDiesBetweenPhases(t *testing.T) {
	p, sets := testPipeline(t)
	cfg := replica.Config{Backoff: shard.Backoff{Initial: time.Hour, Max: time.Hour}}
	rc := newReplicated(t, p, 2, 2, ingest.Config{DisableCompactor: true}, cfg, true)
	f := rc.faults[0]
	det := core.NewShardedLiveDetectorOver(p.Collection, rc.cluster, p.Cfg.Online)

	// The fault fires on the first query whose scatter reaches shard 0's
	// follower and whose top-up then needs it.
	for _, q := range sets[len(sets)-1].Queries {
		f.FailViewAtCall(1)
		got, trace := det.Search(q)
		want, _ := p.Detector.Search(q)
		expertsIdentical(t, "between-phases", q, got, want)
		if trace.Missing != 0 {
			t.Fatalf("%q: answer misses shards %b", q, trace.Missing)
		}
		if f.ViewsFailed() > 0 {
			break
		}
	}
	if n := f.ViewsFailed(); n != 1 {
		t.Fatalf("the follower's view failed %d top-ups, want exactly 1", n)
	}
	if pq, se := det.PartialStats(); pq != 0 || se != 0 {
		t.Fatalf("the re-run left partial %d, errors %d", pq, se)
	}
	if fo := det.Failovers(); fo < 1 {
		t.Fatalf("Failovers = %d, want the recovered shard counted", fo)
	}
	if rc.sets[0].Health(1).Healthy() {
		t.Fatal("the Set did not mark the follower whose top-up failed")
	}
}

// TestStaleFollowerRejected pins epoch-gap rejection: a follower that
// missed one write while down is ejected from the read set even after
// its transport heals — reads route to the primary, never to the gap.
func TestStaleFollowerRejected(t *testing.T) {
	p, _ := testPipeline(t)
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}
	cfg := replica.Config{Backoff: shard.Backoff{Initial: 10 * time.Millisecond, Max: 10 * time.Millisecond}}
	rc := newReplicated(t, p, 1, 2, icfg, cfg, true)
	set, f := rc.sets[0], rc.faults[0]

	for _, post := range streamPosts(p, 95, 20) {
		if err := rc.cluster.IngestBatch([]microblog.Post{post}); err != nil {
			t.Fatal(err)
		}
	}
	f.Kill()
	missed := streamPosts(p, 96, 1)[0]
	if err := rc.cluster.IngestBatch([]microblog.Post{missed}); err != nil {
		t.Fatal(err)
	}
	if st := set.Stats(); !st.Stale[1] || st.Applied[1] != st.Epoch-1 {
		t.Fatalf("follower not ejected after missing a write: %+v", st)
	}
	// The transport heals and every backoff window expires — but the
	// gap is forever, so reads must keep routing to the primary.
	f.Heal()
	time.Sleep(20 * time.Millisecond)

	det := core.NewShardedLiveDetectorOver(p.Collection, rc.cluster, p.Cfg.Online)
	rc.cluster.Quiesce()
	cold := core.NewDetector(p.Collection,
		p.Corpus.ExtendedWith(append(streamPosts(p, 95, 20), missed)), p.Cfg.Online)
	readsBefore := f.Composites()
	for i := 0; i < 10; i++ {
		got, _ := det.Search("49ers")
		want, _ := cold.Search("49ers")
		expertsIdentical(t, "stale-rejected", "49ers", got, want)
	}
	if f.Composites() != readsBefore {
		t.Fatalf("stale follower served %d composite reads — the epoch gap was ignored",
			f.Composites()-readsBefore)
	}
	if st := set.Stats(); st.Reads[1] != 0 {
		t.Fatalf("stale follower counted %d served reads", st.Reads[1])
	}
	// New writes skip the stale follower too: its content must stay a
	// clean prefix rather than grow holes.
	ingestsBefore := f.Ingests() + f.IngestsKilled()
	for _, post := range streamPosts(p, 97, 5) {
		if err := rc.cluster.IngestBatch([]microblog.Post{post}); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Ingests() + f.IngestsKilled(); got != ingestsBefore {
		t.Fatalf("stale follower was sent %d more writes — its content now has holes", got-ingestsBefore)
	}
}

// TestReplicationWriteNotRetriedOnTruncation pins exactly-once at the
// wire: a replication write whose *response* is cut mid-frame (the
// follower applied the post; the client cannot know) must surface as
// a failed replication — the follower is ejected — and must never be
// re-sent, because a blind retry would double the post and skew every
// counter the bit-identical bar is stated over.
func TestReplicationWriteNotRetriedOnTruncation(t *testing.T) {
	p, _ := testPipeline(t)
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}
	part := shard.Partition(p.Corpus, 0, 1)

	primary := ingest.New(part, icfg)
	fidx := ingest.New(part, icfg)
	srv, err := transport.Listen("127.0.0.1:0", fidx, transport.DefaultServerConfig(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	d := fault.NewDialer()
	ccfg := transport.ClientConfig{Timeout: 2 * time.Second, Dial: d.Dial}
	follower := transport.NewRemoteShard(srv.Addr().String(), ccfg)
	if err := follower.Handshake(0, 1, len(p.World.Users), part.NumTweets()); err != nil {
		t.Fatal(err)
	}
	set, err := replica.NewSet([]shard.Backend{shard.NewLocal(primary), follower}, replica.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })

	warm := streamPosts(p, 101, 10)
	for _, post := range warm {
		if err := set.IngestBatch([]microblog.Post{post}); err != nil {
			t.Fatal(err)
		}
	}
	baseCount := part.NumTweets()
	fidx.Quiesce()
	if got := fidx.Snapshot().NumTweets(); got != baseCount+len(warm) {
		t.Fatalf("follower holds %d tweets before the fault, want %d", got, baseCount+len(warm))
	}

	// Cut the response stream of every pooled connection: the next
	// replication request reaches the server (writes are unaffected),
	// the server applies it, and the client's read of the response hits
	// EOF.
	d.TruncateAll(0)
	victim := streamPosts(p, 102, 1)[0]
	if err := set.IngestBatch([]microblog.Post{victim}); err != nil {
		t.Fatalf("a follower fault must not fail the write (primary applied it): %v", err)
	}
	st := set.Stats()
	if !st.Stale[1] {
		t.Fatalf("follower not ejected after a lost replication response: %+v", st)
	}
	// Exactly once: the follower applied the victim post a single time —
	// a silent retry would have doubled it. The client saw EOF before
	// the server goroutine finished applying, so poll briefly for the
	// count to settle (and then hold still).
	want := baseCount + len(warm) + 1
	deadline := time.Now().Add(2 * time.Second)
	for fidx.Snapshot().NumTweets() < want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	fidx.Quiesce()
	if got := fidx.Snapshot().NumTweets(); got != want {
		t.Fatalf("follower holds %d tweets after the truncated write, want %d (applied exactly once)", got, want)
	}
	primary.Quiesce()
	if got, want := primary.Snapshot().NumTweets(), baseCount+len(warm)+1; got != want {
		t.Fatalf("primary holds %d tweets, want %d", got, want)
	}
}

// TestAmbiguousPrimaryWriteFailsSafe pins the primary-side half of
// the divergence story: a primary write whose *response* is lost is
// ambiguous — the primary may hold the post — so the Set must presume
// it does: the logical epoch advances (cache entries from before the
// suspect write invalidate), every follower is ejected, and once the
// primary's backoff lapses, reads serve exactly the primary's content
// — which does include the post — bit-identical to a cold rebuild.
func TestAmbiguousPrimaryWriteFailsSafe(t *testing.T) {
	p, _ := testPipeline(t)
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}
	part := shard.Partition(p.Corpus, 0, 1)

	pidx := ingest.New(part, icfg)
	srv, err := transport.Listen("127.0.0.1:0", pidx, transport.DefaultServerConfig(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	d := fault.NewDialer()
	primary := transport.NewRemoteShard(srv.Addr().String(),
		transport.ClientConfig{Timeout: 2 * time.Second, Dial: d.Dial})
	if err := primary.Handshake(0, 1, len(p.World.Users), part.NumTweets()); err != nil {
		t.Fatal(err)
	}
	fidx := ingest.New(part, icfg)
	set, err := replica.NewSet([]shard.Backend{primary, shard.NewLocal(fidx)},
		replica.Config{Backoff: shard.Backoff{Initial: 20 * time.Millisecond, Max: 20 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })

	warm := streamPosts(p, 113, 10)
	for _, post := range warm {
		if err := set.IngestBatch([]microblog.Post{post}); err != nil {
			t.Fatal(err)
		}
	}

	// The suspect write: request reaches the server, the response dies.
	d.TruncateAll(0)
	victim := streamPosts(p, 114, 1)[0]
	if err := set.IngestBatch([]microblog.Post{victim}); err == nil {
		t.Fatal("write with a lost response reported success")
	}
	st := set.Stats()
	if st.Epoch != uint64(len(warm)+1) {
		t.Fatalf("suspect write did not advance the logical epoch: %+v", st)
	}
	if st.Applied[0] != st.Epoch || !st.Stale[1] {
		t.Fatalf("suspect write must presume the primary applied it and eject the follower: %+v", st)
	}

	// The primary did apply it; once its backoff lapses, reads serve
	// the primary's post-write content, bit-identical to a cold rebuild
	// that includes the victim.
	wantTweets := part.NumTweets() + len(warm) + 1
	deadline := time.Now().Add(2 * time.Second)
	for pidx.Snapshot().NumTweets() < wantTweets && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := pidx.Snapshot().NumTweets(); got != wantTweets {
		t.Fatalf("primary holds %d tweets, want %d", got, wantTweets)
	}
	time.Sleep(30 * time.Millisecond) // let the primary's backoff window lapse
	cluster := shard.NewCluster(p.World, set)
	det := core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)
	if err := set.Quiesce(); err != nil {
		t.Fatal(err)
	}
	cold := core.NewDetector(p.Collection,
		p.Corpus.ExtendedWith(append(warm, victim)), p.Cfg.Online)
	followerReads := set.Stats().Reads[1]
	for i := 0; i < 6; i++ {
		got, _ := det.Search("49ers")
		want, _ := cold.Search("49ers")
		expertsIdentical(t, "suspect-primary", "49ers", got, want)
	}
	if pq, se := det.PartialStats(); pq != 0 || se != 0 {
		t.Fatalf("reads degraded: partial %d, errors %d", pq, se)
	}
	if got := set.Stats().Reads[1]; got != followerReads {
		t.Fatalf("ejected follower served %d reads after a suspect primary write", got-followerReads)
	}
}

// TestSetBasics covers the plain-backend face of a Set: construction
// rules, single-replica passthrough, the logical epoch counting
// writes, and batch splitting.
func TestSetBasics(t *testing.T) {
	p, _ := testPipeline(t)
	if _, err := replica.NewSet(nil, replica.DefaultConfig()); err == nil {
		t.Fatal("empty set constructed")
	}
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}
	idx := ingest.New(shard.Partition(p.Corpus, 0, 1), icfg)
	set, err := replica.NewSet([]shard.Backend{shard.NewLocal(idx)}, replica.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.NumReplicas() != 1 || set.Primary() != set.Replica(0) {
		t.Fatal("single-replica set wiring broken")
	}
	if !set.EpochIsLocal() {
		t.Fatal("a set's epoch must be a local read")
	}
	if e, err := set.Epoch(); err != nil || e != 0 {
		t.Fatalf("fresh set epoch %d err %v", e, err)
	}
	posts := streamPosts(p, 104, 7)
	if err := set.IngestBatch(posts[:1]); err != nil {
		t.Fatal(err)
	}
	if err := set.IngestBatch(posts[1:]); err != nil {
		t.Fatal(err)
	}
	if err := set.IngestBatch(nil); err != nil {
		t.Fatal(err)
	}
	if e, _ := set.Epoch(); e != uint64(len(posts)) {
		t.Fatalf("logical epoch %d after %d writes", e, len(posts))
	}
	if err := set.Quiesce(); err != nil {
		t.Fatal(err)
	}
	rows, matched, v, err := set.Search(context.Background(), []string{"49ers"}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if matched == 0 || len(rows) == 0 {
		t.Fatal("single-replica search returned nothing for a warm query")
	}
	v.Release()
	if st := set.Stats(); st.Failovers != 0 || st.Reads[0] != 1 || st.Healthy[0] != true {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if !set.Health(0).Healthy() {
		t.Fatal("healthy primary's health handle disagrees")
	}
	// All replicas dead: the shard fails whole, with ErrNoReplica once
	// backoff silences the probes.
	f := fault.Wrap(shard.NewLocal(ingest.New(shard.Partition(p.Corpus, 0, 1), icfg)))
	deadSet, err := replica.NewSet([]shard.Backend{f},
		replica.Config{Backoff: shard.Backoff{Initial: time.Hour, Max: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer deadSet.Close()
	f.Kill()
	if _, _, _, err := deadSet.Search(context.Background(), []string{"nfl"}, false, nil); err == nil {
		t.Fatal("search on a dead set succeeded")
	}
	if _, _, _, err := deadSet.Search(context.Background(), []string{"nfl"}, false, nil); err != replica.ErrNoReplica {
		t.Fatalf("second search want ErrNoReplica (backoff silences the probe), got %v", err)
	}
	if err := deadSet.IngestBatch(posts[:1]); err == nil {
		t.Fatal("write with a dead primary succeeded")
	}
	if err := deadSet.IngestBatch(posts); err == nil {
		t.Fatal("batch write with a dead primary succeeded")
	}
}
