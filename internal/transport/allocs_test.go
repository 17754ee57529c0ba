package transport_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/race"
	"repro/internal/shard"
	"repro/internal/world"
)

// TestSearchConversationAllocs pins what one shard's search
// conversation costs once its connection is warm, both ends counted
// (the loopback servers run in this process): the OpSearchStats
// composite, the foreign-candidate top-up OpStats against the pinned
// snapshot, and the release back to the pool. Request build buffer,
// view, frame buffers and decoded rows all belong to the connection;
// what is left is the server's one string copy of the request's terms.
func TestSearchConversationAllocs(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	const n = 2
	clients := startShardServers(t, p, n, ingest.Config{SealThreshold: 32, CompactFanIn: 3})
	backends := make([]shard.Backend, n)
	for i, c := range clients {
		backends[i] = c
	}
	cluster := shard.NewCluster(p.World, backends...)
	if err := cluster.IngestBatch(streamPosts(p, 97, 300)); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Quiesce(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	terms := []string{"49ers", "nfl draft", "san francisco 49ers", "niners"}
	var (
		rows    [n][]expertise.RawCandidate
		own     [n][]expertise.UserStats
		topUp   [n][]expertise.UserStats
		views   [n]shard.View
		foreign []world.UserID
		failed  error
		toppedN int
	)
	conversation := func() {
		for si, c := range clients {
			var err error
			rows[si], _, own[si], views[si], err = c.SearchStats(ctx, terms, false, rows[si], own[si])
			if err != nil {
				failed = err
				return
			}
		}
		for si := range clients {
			// Every shard answers for the other shard's candidates, as the
			// coordinator's gather asks it to.
			foreign = foreign[:0]
			for _, r := range rows[1-si] {
				foreign = append(foreign, r.User)
			}
			toppedN = len(foreign)
			var err error
			if topUp[si], err = views[si].Stats(ctx, foreign, topUp[si]); err != nil {
				failed = err
			}
			views[si].Release()
		}
	}
	conversation() // warm: connections dialed, every buffer grown
	if failed != nil {
		t.Fatal(failed)
	}
	if toppedN == 0 || len(rows[0]) == 0 {
		t.Fatalf("no foreign candidates to top up (%d, %d rows): the conversation under test has no OpStats leg", len(rows[0]), len(rows[1]))
	}
	perShard := testing.AllocsPerRun(200, conversation) / n
	if failed != nil {
		t.Fatal(failed)
	}
	// 1 in a plain run (23 before the conversation ran out of
	// connection-owned scratch). Not held under the race detector, where
	// sync.Pool drops a quarter of its Puts and every dropped
	// shard.Local scratch is regrown buffer by buffer.
	if perShard > 3 && !race.Enabled {
		t.Fatalf("a warm SearchStats + Stats + Release allocates %v times per shard, want ≤ 3", perShard)
	}
}

// TestRemoteScatterAllocs pins the remote scatter's per-shard
// increment end to end: a default-config detector over N ∈ {1, 2, 4}
// loopback shards, both wire ends counted (the servers run in this
// process), allocates exactly the counts below per pass of
// scatterQueries once warm — the answers, plus one allocation per
// shard per query: the server's string copy of the request's terms.
// Phase one's composite, phase two's top-up and the release own
// every other buffer through the connection. Skipped under -race,
// where sync.Pool drops Puts and pooled scratch is rebuilt.
func TestRemoteScatterAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	// Three answers, plus one terms copy per shard per query.
	const perShard = 3
	want := map[int]float64{1: 6, 2: 9, 4: 15}
	perN := map[int]float64{}
	for _, n := range []int{1, 2, 4} {
		backends := make([]shard.Backend, n)
		for i, c := range startShardServers(t, p, n, ingest.DefaultConfig()) {
			backends[i] = c
		}
		cluster := shard.NewCluster(p.World, backends...)
		if err := cluster.IngestBatch(streamPosts(p, 19, 2048)); err != nil {
			t.Fatal(err)
		}
		if err := cluster.Quiesce(); err != nil {
			t.Fatal(err)
		}
		d := core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)
		for range 3 { // warm: connections dialed, every buffer grown
			for _, q := range scatterQueries {
				if res, _ := d.Search(q); len(res) == 0 {
					t.Fatalf("N=%d: %q ranks nobody", n, q)
				}
			}
		}
		perN[n] = testing.AllocsPerRun(50, func() {
			for _, q := range scatterQueries {
				d.Search(q)
			}
		})
		if pq, _ := d.PartialStats(); pq != 0 {
			t.Fatalf("N=%d: %d partial queries", n, pq)
		}
		if perN[n] != want[n] {
			t.Errorf("N=%d: %v allocs per pass of %d queries, want %v", n, perN[n], len(scatterQueries), want[n])
		}
	}
	for _, n := range []int{2, 4} {
		if inc := (perN[n] - perN[1]) / float64(n-1); inc != perShard {
			t.Errorf("N=%d: %v allocs per pass per extra shard, want %d (one per query)", n, inc, perShard)
		}
	}
}

// scatterQueries is TestRemoteScatterAllocs' fixed pass: two single
// tokens and a phrase whose tokens already arrive in canonical order
// (so no query costs a canonical key), each ranking someone at every N.
var scatterQueries = []string{"49ers", "diabetes", "dow futures"}
