// Serving-layer tests for replication: the cache must survive a
// failover (same logical epochs, different replica answering), a
// replicated cluster must never go uncacheable (its epoch sample
// touches no replica), and a replica failure under mixed load must
// yield failover — zero partial results — while staying bit-identical
// to a cold rebuild.
package replica_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/shard"
)

// TestServeCacheSurvivesFailover pins the view-identity contract that
// makes failover invisible to the cache: an entry cached while
// follower A was serving stays valid when replica B answers the next
// sample — the logical epochs did not move — so a replica death alone
// invalidates nothing and bypasses nothing (no uncacheable requests,
// unlike a dead *unreplicated* shard); and a subsequent write still
// invalidates exactly as a single-node epoch bump would.
func TestServeCacheSurvivesFailover(t *testing.T) {
	p, _ := testPipeline(t)
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}
	cfg := replica.Config{Backoff: shard.Backoff{Initial: time.Hour, Max: time.Hour}}
	rc := newReplicated(t, p, 2, 2, icfg, cfg, false, true)

	online := p.Cfg.Online
	online.MatchWorkers = 1
	det := core.NewShardedLiveDetectorOver(p.Collection, rc.cluster, online)
	srv := serve.New(det, serve.DefaultConfig())

	const q = "49ers"
	first := srv.Search(q)
	if st := srv.Stats(); st.CacheMisses != 1 {
		t.Fatalf("first query: %d misses", st.CacheMisses)
	}
	srv.Search(q)
	if st := srv.Stats(); st.CacheHits != 1 {
		t.Fatalf("second query: %d hits", st.CacheHits)
	}

	// Both shards' followers die. The logical epoch vector is
	// unchanged, so the cached entry must keep serving — no
	// invalidation, no recompute, no cache bypass.
	rc.faults[0].Kill()
	rc.faults[1].Kill()
	again := srv.Search(q)
	st := srv.Stats()
	if st.CacheHits != 2 || st.Invalidations != 0 {
		t.Fatalf("failover invalidated the cache: %+v", st)
	}
	if st.Uncacheable != 0 {
		t.Fatalf("replicated shard went uncacheable on replica death: %+v", st)
	}
	expertsIdentical(t, "cached-across-failover", q, again, first)

	// Cold queries scatter for real now: reads fail over (the rotation
	// keeps offering the dead followers until backoff mutes them) and
	// the queries stay whole.
	for _, cq := range []string{"nfl", "diabetes", "coffee", "dow futures"} {
		srv.Search(cq)
	}
	st = srv.Stats()
	if st.PartialResults != 0 || st.ShardErrors != 0 {
		t.Fatalf("replica death degraded queries: %+v", st)
	}
	if st.Failovers == 0 {
		t.Fatal("no failovers surfaced in serve stats")
	}
	if st.Failovers != det.Failovers() {
		t.Fatalf("stats failovers %d, detector reports %d", st.Failovers, det.Failovers())
	}

	// A write moves the logical epoch of exactly one shard; the entry
	// must invalidate and recompute against the post-write view.
	post := streamPosts(p, 111, 1)[0]
	if err := rc.cluster.IngestBatch([]microblog.Post{post}); err != nil {
		t.Fatal(err)
	}
	inv := st.Invalidations
	recomputed := srv.Search(q)
	direct, _ := det.Search(q)
	expertsIdentical(t, "post-write-recompute", q, recomputed, direct)
	st = srv.Stats()
	if st.Invalidations != inv+1 {
		t.Fatalf("write did not invalidate the entry: %+v", st)
	}
	if st.Uncacheable != 0 {
		t.Fatalf("uncacheable crept in: %+v", st)
	}
}

// TestReplicatedMixedLoadZeroPartials is the acceptance run: a
// follower dies at a scripted point under full mixed read/write load
// and the serving stats must show failover, not degradation — zero
// partial results, zero shard errors, zero uncacheable requests, the
// dead follower probed at most once per (here: infinite) backoff
// window — and the quiesced cluster must still rank bit-identically
// to a cold rebuild over the whole query pool.
func TestReplicatedMixedLoadZeroPartials(t *testing.T) {
	p, sets := testPipeline(t)
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}
	cfg := replica.Config{Backoff: shard.Backoff{Initial: time.Hour, Max: time.Hour}}
	rc := newReplicated(t, p, 2, 2, icfg, cfg, false, true)

	online := p.Cfg.Online
	online.MatchWorkers = 1
	det := core.NewShardedLiveDetectorOver(p.Collection, rc.cluster, online)
	srv := serve.New(det, serve.DefaultConfig())

	var pool []string
	for _, set := range sets {
		pool = append(pool, set.Queries...)
	}

	// The kill fires mid-load, at the follower's 40th call — drain
	// semantics: whatever conversation is in flight completes, every
	// call after the gate fails.
	rc.faults[0].KillAfterCalls(40)
	res := serve.RunMixedLoad(srv, rc.cluster, serve.MixedLoadConfig{
		Queries:       pool,
		Searches:      3 * len(pool),
		SearchWorkers: 4,
		Ingests:       400,
		IngestWorkers: 2,
		BaselineEvery: 5,
		Seed:          29,
	})
	if res.Ingested != 400 {
		t.Fatalf("sink dropped writes: %d of 400 ingested", res.Ingested)
	}
	st := res.Stats
	if st.PartialResults != 0 || st.ShardErrors != 0 {
		t.Fatalf("replica death degraded queries under load: %+v", st)
	}
	if st.Uncacheable != 0 {
		t.Fatalf("replicated cluster went uncacheable under load: %+v", st)
	}
	f := rc.faults[0]
	if f.Calls() <= 40 {
		t.Fatalf("kill never fired: %d calls", f.Calls())
	}
	// At most one write reaches the dead follower (the one that ejects
	// it; after that, writes skip it), and reads stop probing it after
	// one backoff trip — per-request dialing is the bug this layer
	// fixes.
	if killed := f.IngestsKilled(); killed > 1 {
		t.Fatalf("dead follower was sent %d writes after the kill", killed)
	}
	if probes := f.SearchesKilled(); probes > 8 {
		t.Fatalf("dead follower absorbed %d read probes — backoff is not gating reads", probes)
	}
	// Whatever reads reached the follower before the kill (the 40 calls
	// may all have been writes) took the path production takes.
	if f.Searches() != 0 {
		t.Fatalf("follower saw %d plain searches — reads left the composite path", f.Searches())
	}

	// The spine holds under fault + load: quiesce and rebuild cold from
	// the primaries' content.
	if err := rc.cluster.Quiesce(); err != nil {
		t.Fatal(err)
	}
	all := append([]microblog.Tweet(nil), p.Corpus.Tweets()...)
	all = append(all, rc.ingested()...)
	cold := core.NewDetector(p.Collection, microblog.FromTweets(p.World, all), online)
	for _, q := range pool {
		got, _ := det.Search(q)
		want, _ := cold.Search(q)
		expertsIdentical(t, "mixed-load-fault", q, got, want)
	}
}
