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
	"repro/internal/transport"
	"repro/internal/world"
)

// TestSearchConversationAllocs pins what one shard's search
// conversation costs once its connection is warm, both ends counted
// (the loopback servers run in this process): the OpSearchStats
// composite, the foreign-candidate top-up OpStats against the pinned
// snapshot, and the release back to the pool. Request build buffer,
// view, frame buffers, decoded rows and the table the request's terms
// are drawn from all belong to the connection, so nothing is left.
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
	// Not held under the race detector, where sync.Pool drops a quarter
	// of its Puts and every dropped shard.Local scratch is regrown
	// buffer by buffer.
	if perShard != 0 && !race.Enabled {
		t.Fatalf("a warm SearchStats + Stats + Release allocates %v times per shard, want 0", perShard)
	}
}

// TestRemoteScatterAllocs pins the remote scatter's per-shard
// increment end to end: a default-config detector over N ∈ {1, 2, 4}
// loopback shards, both wire ends counted (the servers run in this
// process), allocates exactly the counts below per pass of
// scatterQueries once warm — the answers, and nothing per extra shard:
// the server draws the request's terms from its connection's term
// table, and phase one's composite, phase two's top-up and the release
// own every other buffer through the connection. Skipped under -race,
// where sync.Pool drops Puts and pooled scratch is rebuilt.
func TestRemoteScatterAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	// Three answers, whatever the shard count.
	const perShard = 0
	want := map[int]float64{1: 3, 2: 3, 4: 3}
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
			t.Errorf("N=%d: %v allocs per pass per extra shard, want %d", n, inc, perShard)
		}
	}
}

// scatterQueries is TestRemoteScatterAllocs' fixed pass: two single
// tokens and a phrase whose tokens already arrive in canonical order
// (so no query costs a canonical key), each ranking someone at every N.
var scatterQueries = []string{"49ers", "diabetes", "dow futures"}

// TestTermTableWorstCase pins what a term table costs a request: a
// request whose terms the table holds decodes without allocating, and
// one with terms the table has no room for copies its terms region
// once, however many of them there are — as a decode without a table
// does — so a full table never makes a request dearer.
func TestTermTableWorstCase(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not held under the race detector")
	}
	full := fullTermTable(t)
	known := transport.AppendSearchReq(nil, transport.SearchReq{Terms: []string{"fill000000", "fill000001", "fill000002"}})
	unseen := transport.AppendSearchReq(nil, transport.SearchReq{Terms: []string{"a novel query", "its", "five", "expansion", "terms"}})
	scratch := make([]string, 0, 8)
	for _, c := range []struct {
		name    string
		payload []byte
		want    float64
	}{
		{"known terms", known, 0},
		{"unseen terms, table full", unseen, 1},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			req, _, err := transport.ConsumeSearchReq(full, scratch, c.payload)
			if err != nil {
				t.Fatal(err)
			}
			scratch = req.Terms
		})
		if allocs != c.want {
			t.Errorf("%s: %v allocations per decode, want %v", c.name, allocs, c.want)
		}
	}
}
