package shard_test

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expertise"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/shard"
	"repro/internal/topology"
	"repro/internal/world"
)

var (
	pipeOnce sync.Once
	pipe     *core.Pipeline
	pipeSets []eval.QuerySet
	pipeErr  error
)

// localCluster is n in-process shards over p's base posts, built as
// every topology is (topology.Build).
func localCluster(t testing.TB, p *core.Pipeline, n int, icfg ingest.Config) *shard.Cluster {
	t.Helper()
	c, err := topology.InProcess(n, 1).Build(p.World, nil, p.Corpus.Tweets(), icfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

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

// shardIndex returns shard i's streaming index in an all-local cluster.
func shardIndex(c *shard.Cluster, i int) *ingest.Index {
	return c.Backend(i).(*shard.Local).Index()
}

// shardStats snapshots every shard's writer-side counters in an
// all-local cluster, plus the posts ingested and tweets held in total.
func shardStats(c *shard.Cluster) (per []ingest.IndexStats, ingested int64, tweets int) {
	for i := 0; i < c.NumShards(); i++ {
		st := shardIndex(c, i).Stats()
		per = append(per, st)
		ingested += st.Ingested
		tweets += st.NumTweets
	}
	return per, ingested, tweets
}

// epochVector samples an all-local cluster's vector, which cannot fail.
func epochVector(t *testing.T, c *shard.Cluster) []uint64 {
	t.Helper()
	ev, err := c.EpochVector(nil)
	if err != nil {
		t.Fatal(err)
	}
	return ev
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

// TestShardOfStability pins the routing hash: it must be a pure
// function of (author, shard count) — stable across clusters, processes
// and restarts — and the golden values guard the hash constants against
// accidental change (a constant change would silently re-partition
// every deployed stream on upgrade).
func TestShardOfStability(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for u := world.UserID(0); u < 4096; u++ {
			s1 := shard.ShardOf(u, n)
			s2 := shard.ShardOf(u, n)
			if s1 != s2 {
				t.Fatalf("ShardOf(%d, %d) unstable: %d vs %d", u, n, s1, s2)
			}
			if s1 < 0 || s1 >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", u, n, s1)
			}
		}
	}
	// Golden pins computed from the fixed splitmix64 finalizer.
	pins := []struct {
		u    world.UserID
		n    int
		want int
	}{
		{0, 1, 0}, {7, 1, 0},
		{0, 4, 0}, {1, 4, 1}, {2, 4, 2}, {3, 4, 0}, {4, 4, 0},
		{1, 8, 5}, {2, 8, 2}, {3, 8, 0},
		{123456, 8, 0},
	}
	for _, p := range pins {
		if got := shard.ShardOf(p.u, p.n); got != p.want {
			t.Fatalf("golden pin: ShardOf(%d, %d) = %d, want %d (hash constants changed?)",
				p.u, p.n, got, p.want)
		}
	}
}

// TestClusterAuthorAffinity pins the partition invariant: every base
// tweet and every ingested post lands on ShardFor(author)'s index, and
// the shards' contents sum to base plus everything ingested.
func TestClusterAuthorAffinity(t *testing.T) {
	p, _ := testPipeline(t)
	posts := streamPosts(p, 61, 300)
	r := localCluster(t, p, 4, ingest.Config{SealThreshold: 32, CompactFanIn: 3})
	defer r.Close()
	if err := r.IngestBatch(posts); err != nil {
		t.Fatal(err)
	}
	r.Quiesce()

	total := 0
	for i := 0; i < r.NumShards(); i++ {
		snap := shardIndex(r, i).Snapshot()
		total += snap.NumTweets()
		snap.Scan(0, snap.NumTweets(), func(tw *microblog.Tweet) {
			if got := r.ShardFor(tw.Author); got != i {
				t.Fatalf("shard %d holds a tweet by author %d, who routes to shard %d",
					i, tw.Author, got)
			}
		})
	}
	if want := p.Corpus.NumTweets() + len(posts); total != want {
		t.Fatalf("shards hold %d tweets in total, want %d", total, want)
	}
	_, ingested, tweets := shardStats(r)
	if ingested != int64(len(posts)) {
		t.Fatalf("shards ingested %d, want %d", ingested, len(posts))
	}
	if tweets != total {
		t.Fatalf("stats count %d tweets, snapshots hold %d", tweets, total)
	}
}

// TestClusterShardsOwnTheirSpillDirs pins the disk-tier layout of an
// all-local cluster: an index owns its spill directory, so shard i
// spills under <SpillDir>/shard-<i> and nothing lands at the top level
// — shards sharing one directory collided on segment file names and
// corrupted each other's spills.
func TestClusterShardsOwnTheirSpillDirs(t *testing.T) {
	p, _ := testPipeline(t)
	dir := t.TempDir()
	c := localCluster(t, p, 2, ingest.Config{SealThreshold: 16, CompactFanIn: 3, SpillDir: dir, SpillThreshold: 32})
	defer c.Close()
	if err := c.IngestBatch(streamPosts(p, 71, 400)); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"shard-0", "shard-1"}) {
		t.Fatalf("spill directory holds %v, want exactly [shard-0 shard-1]", names)
	}
	per, _, _ := shardStats(c)
	for i, st := range per {
		files, err := os.ReadDir(filepath.Join(dir, names[i]))
		if err != nil {
			t.Fatal(err)
		}
		segs := 0
		for _, f := range files {
			if filepath.Ext(f.Name()) != ".esg" {
				t.Fatalf("shard %d's spill directory holds %s", i, f.Name())
			}
			segs++
		}
		if st.SpillErrors != 0 || st.DiskSegments == 0 || segs < st.DiskSegments {
			t.Fatalf("shard %d: %d segment files for %d disk segments, %d spill errors", i, segs, st.DiskSegments, st.SpillErrors)
		}
	}
}

// TestEpochVectorSingleShardAdvance pins the vector-epoch contract: one
// ingested post advances exactly its author's shard's component and
// leaves every other component untouched.
func TestEpochVectorSingleShardAdvance(t *testing.T) {
	p, _ := testPipeline(t)
	r := localCluster(t, p, 4, ingest.DefaultConfig())
	defer r.Close()

	before := epochVector(t, r)
	post := streamPosts(p, 67, 1)[0]
	target := r.ShardFor(post.Author)
	if err := r.IngestBatch([]microblog.Post{post}); err != nil {
		t.Fatal(err)
	}
	after := epochVector(t, r)

	for i := range before {
		switch {
		case i == target && after[i] != before[i]+1:
			t.Fatalf("author's shard %d epoch %d -> %d, want +1", i, before[i], after[i])
		case i != target && after[i] != before[i]:
			t.Fatalf("untouched shard %d epoch moved %d -> %d", i, before[i], after[i])
		}
	}
}

// TestEpochVectorAllLocalAllocFree pins the sample the serving layer
// takes on every request, hits included: over an all-local cluster with
// a reused dst it allocates nothing.
func TestEpochVectorAllLocalAllocFree(t *testing.T) {
	p, _ := testPipeline(t)
	r := localCluster(t, p, 4, ingest.DefaultConfig())
	defer r.Close()
	buf := make([]uint64, 0, 4)
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = r.EpochVector(buf) }); allocs != 0 {
		t.Fatalf("all-local EpochVector allocates %v per sample, want 0", allocs)
	}
}

// TestConcurrentShardedIngestSearch is the -race hammer: concurrent
// routed ingesters and scatter-gather searchers share one cluster while
// every shard's compactor runs. Afterwards the quiesced cluster must
// match a cold detector rebuilt from the shards' own final content.
func TestConcurrentShardedIngestSearch(t *testing.T) {
	p, _ := testPipeline(t)
	r := localCluster(t, p, 4, ingest.Config{SealThreshold: 16, CompactFanIn: 3})
	defer r.Close()
	sharded := core.NewShardedLiveDetectorOver(p.Collection, r, p.Cfg.Online)
	queries := []string{"49ers", "diabetes", "nfl", "dow futures", "coffee", "zzz-none"}
	maxResults := p.Cfg.Online.Expertise.MaxResults

	const ingesters, perIngester = 2, 150
	const searchers, perSearcher = 4, 100
	errs := make(chan error, searchers)
	var wg sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(uint64(200+g)))
			for i := 0; i < perIngester; i++ {
				r.IngestBatch([]microblog.Post{stream.Next()})
			}
		}(g)
	}
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSearcher; i++ {
				experts, _ := sharded.Search(queries[(g+i)%len(queries)])
				if maxResults > 0 && len(experts) > maxResults {
					errs <- errInvariant("result cap exceeded")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	r.Quiesce()
	if _, ingested, _ := shardStats(r); ingested != ingesters*perIngester {
		t.Fatalf("ingested %d posts, want %d", ingested, ingesters*perIngester)
	}

	// Cold rebuild from the shards' own final content.
	all := append([]microblog.Tweet(nil), p.Corpus.Tweets()...)
	for i := 0; i < r.NumShards(); i++ {
		snap := shardIndex(r, i).Snapshot()
		base := shardIndex(r, i).Base().NumTweets()
		snap.Scan(base, snap.NumTweets(), func(tw *microblog.Tweet) { all = append(all, *tw) })
	}
	cold := core.NewDetector(p.Collection, microblog.FromTweets(p.World, all), p.Cfg.Online)
	for _, q := range queries {
		got, _ := sharded.Search(q)
		want, _ := cold.Search(q)
		expertsIdentical(t, "post-hammer", q, got, want)
	}
}

type errInvariant string

func (e errInvariant) Error() string { return string(e) }

// TestClusterCloseQuiesceLifecycle covers the shutdown paths: Close is
// idempotent, the shards stay readable and writable afterwards (only
// background compaction stops), and an explicit Quiesce after Close
// still drains eligible merges synchronously.
func TestClusterCloseQuiesceLifecycle(t *testing.T) {
	p, _ := testPipeline(t)
	r := localCluster(t, p, 2, ingest.Config{SealThreshold: 8, CompactFanIn: 2})
	posts := streamPosts(p, 97, 100)
	if err := r.IngestBatch(posts[:50]); err != nil {
		t.Fatal(err)
	}

	r.Close()
	r.Close() // double Close must be a no-op, not a panic or deadlock

	// Writes after Close still land and publish fresh snapshots.
	_, before, _ := shardStats(r)
	if err := r.IngestBatch(posts[50:]); err != nil {
		t.Fatal(err)
	}
	_, after, tweets := shardStats(r)
	if after != before+50 {
		t.Fatalf("ingested after Close: %d -> %d, want +50", before, after)
	}
	if tweets != p.Corpus.NumTweets()+len(posts) {
		t.Fatalf("tweets after Close: %d, want %d", tweets, p.Corpus.NumTweets()+len(posts))
	}

	// With the compactor stopped, Quiesce is the only merge driver; it
	// must leave no eligible run behind.
	r.Quiesce()
	per, _, _ := shardStats(r)
	for i, ps := range per {
		if ps.Segments >= 2*2 { // a full fan-in run left unmerged
			t.Fatalf("shard %d still has %d sealed segments after Quiesce", i, ps.Segments)
		}
	}

	// And the quiesced post-Close cluster still ranks identically to a
	// cold rebuild — Close must never cost correctness.
	det := core.NewShardedLiveDetectorOver(p.Collection, r, p.Cfg.Online)
	cold := core.NewDetector(p.Collection, p.Corpus.ExtendedWith(posts), p.Cfg.Online)
	for _, q := range []string{"49ers", "nfl", "coffee"} {
		got, _ := det.Search(q)
		want, _ := cold.Search(q)
		expertsIdentical(t, "post-close", q, got, want)
	}
}

// TestClusterLocalRouting covers the Cluster composition surface over
// an explicit backend list, as the remote topology builds it: ordered
// backends, write routing by author hash, run-grouped batch ingest, and
// the epoch vector.
func TestClusterLocalRouting(t *testing.T) {
	p, _ := testPipeline(t)
	const n = 4
	backends := make([]shard.Backend, n)
	locals := make([]*shard.Local, n)
	for i := 0; i < n; i++ {
		idx := ingest.New(shard.Partition(p.Corpus, i, n), ingest.DefaultConfig())
		defer idx.Close()
		locals[i] = shard.NewLocal(idx)
		backends[i] = locals[i]
	}
	c := shard.NewCluster(p.World, backends...)
	if c.NumShards() != n || c.World() != p.World {
		t.Fatal("cluster surface broken")
	}

	posts := streamPosts(p, 101, 200)
	if err := c.IngestBatch(posts); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < n; i++ {
		if c.Backend(i) != backends[i] {
			t.Fatalf("backend %d identity changed", i)
		}
		idx := locals[i].Index()
		snap := idx.Snapshot()
		snap.Scan(idx.Base().NumTweets(), snap.NumTweets(), func(tw *microblog.Tweet) {
			if got := c.ShardFor(tw.Author); got != i {
				t.Fatalf("shard %d holds a post routed to %d", i, got)
			}
			total++
		})
	}
	if total != len(posts) {
		t.Fatalf("shards hold %d ingested posts, want %d", total, len(posts))
	}

	if ev, err := c.EpochVector(nil); err != nil || len(ev) != n {
		t.Fatalf("epoch vector %v err %v", ev, err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // idempotent through Local
		t.Fatal(err)
	}
}

// TestLocalViewPinsSnapshot pins the view contract the gather's top-up
// relies on: a view's Stats answer from the state the composite scatter
// pinned — the same state its own-candidate stats were read from — not
// from writes that land afterwards.
func TestLocalViewPinsSnapshot(t *testing.T) {
	p, _ := testPipeline(t)
	idx := ingest.New(p.Corpus, ingest.DefaultConfig())
	defer idx.Close()
	l := shard.NewLocal(idx)

	rows, _, own, v, err := l.SearchStats(context.Background(), []string{"49ers"}, false, nil, nil)
	if err != nil || len(rows) == 0 || len(own) != len(rows) {
		t.Fatalf("search: %d rows, %d stats, err %v", len(rows), len(own), err)
	}
	u := rows[0].User
	before, err := v.Stats(context.Background(), []world.UserID{u}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if before[0] != own[0] {
		t.Fatalf("view and composite disagree on one pinned state: %+v vs %+v", before[0], own[0])
	}

	// A burst of new posts by that user lands after the pin.
	for i := 0; i < 5; i++ {
		idx.Ingest(microblog.Post{Author: u, Text: "vibes 49ers tonight", Topic: -1})
	}
	after, err := v.Stats(context.Background(), []world.UserID{u}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after[0] != before[0] {
		t.Fatalf("pinned view drifted under ingest: %+v -> %+v", before[0], after[0])
	}
	v.Release()

	// A fresh search pins a view that observes the writes.
	_, _, _, fresh, err := l.SearchStats(context.Background(), []string{"49ers"}, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Release()
	now, err := fresh.Stats(context.Background(), []world.UserID{u}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if now[0].Tweets != before[0].Tweets+5 {
		t.Fatalf("fresh view misses writes: %+v vs %+v + 5", now[0], before[0])
	}
}

// TestLocalViewRefusesUnsortedUsers pins the stats contract at the
// point a peer's list arrives: a snapshot sums its tail's denominators
// in one pass that needs a strictly ascending user list, so a view
// refuses a duplicated or descending list with an error and no counts,
// whether a plain or a composite search pinned it.
func TestLocalViewRefusesUnsortedUsers(t *testing.T) {
	p, _ := testPipeline(t)
	idx := ingest.New(p.Corpus, ingest.DefaultConfig())
	defer idx.Close()
	idx.IngestBatch([]microblog.Post{{Author: 3, Text: "49ers tonight", Mentions: []world.UserID{5}, Topic: -1}})
	l := shard.NewLocal(idx)

	_, _, _, pinned, err := l.SearchStats(context.Background(), []string{"49ers"}, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Release()
	_, _, plain, err := l.Search(context.Background(), []string{"49ers"}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Release()
	for _, v := range []shard.View{pinned, plain} {
		for _, users := range [][]world.UserID{{3, 3}, {5, 3}, {1, 5, 3, 7}} {
			got, err := v.Stats(context.Background(), users, make([]expertise.UserStats, 4))
			if err == nil || len(got) != 0 {
				t.Fatalf("stats for %v: %d triples, err %v; want an error and none", users, len(got), err)
			}
		}
		got, err := v.Stats(context.Background(), []world.UserID{3, 5}, nil)
		if err != nil || len(got) != 2 || got[0].Tweets == 0 || got[1].Mentions == 0 {
			t.Fatalf("stats for an ascending list: %+v, err %v", got, err)
		}
	}
}

// flakyEpochBackend is a Local whose Epoch can be made to fail — it
// stands in for a remote shard so the cluster's EpochUnknown
// degradation runs under this package's own tests. probes counts the
// Epoch calls that reached it.
type flakyEpochBackend struct {
	*shard.Local
	fail   bool
	probes int
}

func (f *flakyEpochBackend) Epoch() (uint64, error) {
	f.probes++
	if f.fail {
		return 0, errInvariant("epoch probe failed")
	}
	return f.Local.Epoch()
}

// TestClusterEpochVectorWithRemoteMembers drives sampling over members
// whose Epoch can fail: every component is sampled, a failing member
// reads EpochUnknown (plus the error) without poisoning the others, and
// a healed member is read on the very next sample — the cluster keeps
// no backoff of its own.
func TestClusterEpochVectorWithRemoteMembers(t *testing.T) {
	p, _ := testPipeline(t)
	mk := func(i, n int) *shard.Local {
		idx := ingest.New(shard.Partition(p.Corpus, i, n), ingest.DefaultConfig())
		t.Cleanup(idx.Close)
		return shard.NewLocal(idx)
	}
	flaky := &flakyEpochBackend{Local: mk(1, 4)}
	steady := &flakyEpochBackend{Local: mk(2, 4)}
	c := shard.NewCluster(p.World, mk(0, 4), flaky, steady, mk(3, 4))

	ev, err := c.EpochVector(nil)
	if err != nil || len(ev) != 4 {
		t.Fatalf("healthy sample: %v, err %v", ev, err)
	}
	for i, e := range ev {
		if e == shard.EpochUnknown || e == 0 {
			t.Fatalf("component %d implausible: %d", i, e)
		}
	}
	// steadyRead checks that a sample read the healthy member's current
	// epoch, whatever the failed member is doing.
	steadyRead := func(ev []uint64) {
		t.Helper()
		want, _ := steady.Local.Epoch()
		if ev[2] != want {
			t.Fatalf("healthy member sampled as %d, want its epoch %d", ev[2], want)
		}
	}

	flaky.fail = true
	before := ev[2]
	if err := steady.IngestBatch([]microblog.Post{{Author: 2, Text: "49ers tonight", Topic: -1}}); err != nil {
		t.Fatal(err)
	}
	ev, err = c.EpochVector(ev)
	if err == nil || err.Error() != "shard 1: epoch probe failed" {
		t.Fatalf("failed probe reported %v, want shard 1's error", err)
	}
	if ev[1] != shard.EpochUnknown {
		t.Fatalf("failed component is %d, want EpochUnknown", ev[1])
	}
	if ev[0] == shard.EpochUnknown || ev[2] == shard.EpochUnknown || ev[3] == shard.EpochUnknown {
		t.Fatalf("healthy components poisoned: %v", ev)
	}
	steadyRead(ev)
	if ev[2] == before {
		t.Fatalf("healthy member's write not sampled: epoch still %d", before)
	}

	flaky.fail = false
	healed := flaky.probes
	ev, err = c.EpochVector(ev)
	if err != nil || ev[1] == shard.EpochUnknown {
		t.Fatalf("healed member not read on the next sample: %v, err %v", ev, err)
	}
	if got := flaky.probes - healed; got != 1 {
		t.Fatalf("the next sample took %d probes of the healed member, want exactly 1", got)
	}
	steadyRead(ev)
}
