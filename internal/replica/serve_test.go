// Serving-layer tests for replication: the cache must survive a
// failover (same logical epochs, different replica answering), and a
// replicated cluster must never go uncacheable (its epoch sample
// touches no replica). A replica failure under mixed load is the root
// package's TestReplicatedMixedLoadZeroPartials.
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
	rc := newReplicated(t, p, 2, 2, icfg, cfg, true)

	det := core.NewShardedLiveDetectorOver(p.Collection, rc.cluster, p.Cfg.Online)
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
