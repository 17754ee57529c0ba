package transport_test

import (
	"context"
	"testing"

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
