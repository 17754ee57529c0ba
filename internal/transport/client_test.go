// Tests for the client's one request exchange (who is re-sent on a
// stale pooled connection, who is not, who owns the connection
// afterwards) and for two fixed sizes of the protocol's endpoints: the
// client's OpIngest chunk and the server's OpTweets page cap.
package transport_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/world"
)

// TestIngestBatchChunks pins the write chunking: a batch larger than
// one frame's 512 posts crosses the wire as sequential OpIngest frames
// and lands complete and in order.
func TestIngestBatchChunks(t *testing.T) {
	p, _ := testPipeline(t)
	servers, clients := startCountedShardServers(t, p, 1, ingest.DefaultConfig())
	srv, c := servers[0], clients[0]

	posts := streamPosts(p, 8401, 1300)
	if err := c.IngestBatch(posts); err != nil {
		t.Fatal(err)
	}
	if got := srv.Requests(transport.OpIngest); got != 3 {
		t.Fatalf("1300 posts crossed in %d OpIngest frames, want 3 (512+512+276)", got)
	}
	got, err := c.DumpIngested()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(posts) {
		t.Fatalf("server holds %d ingested posts, want %d", len(got), len(posts))
	}
	for i := range posts {
		if postKey(got[i]) != postKey(posts[i]) {
			t.Fatalf("post %d out of order or altered across the chunk boundary", i)
		}
	}
}

// TestDumpIngestedLeavesBlockCacheAlone pins that paging a spilled
// shard's whole log over OpTweets reads past the disk tier's block
// cache: the dump returns every ingested post in order, the posting
// block hit and miss counters and the decode histogram stay where the
// query path left them, and the query path's working set survives it —
// the same searches repeated after the dump miss no block.
func TestDumpIngestedLeavesBlockCacheAlone(t *testing.T) {
	p, sets := testPipeline(t)
	reg := obs.NewRegistry()
	servers, clients := startCountedShardServers(t, p, 1, ingest.Config{
		SealThreshold: 64, CompactFanIn: 4, SpillDir: t.TempDir(), SpillThreshold: 256, Obs: reg,
	})
	c := clients[0]
	posts := streamPosts(p, 8403, 3000)
	if err := c.IngestBatch(posts); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if st := servers[0].Index().Stats(); st.DiskSegments == 0 {
		t.Fatalf("no disk segment to page: %+v", st)
	}
	det := core.NewShardedLiveDetectorOver(p.Collection, shard.NewCluster(p.World, c), p.Cfg.Online)
	search := func() {
		for _, q := range sets[0].Queries {
			det.Search(q)
		}
	}
	hits, misses, reads := reg.Counter("disk_block_cache_hits"), reg.Counter("disk_block_cache_misses"), reg.Histogram("disk_read_ns")
	search()
	m := misses.Load()
	search()
	if misses.Load() != m || hits.Load() == 0 {
		t.Fatalf("the queries' working set does not stay cached: %d hits, %d then %d misses", hits.Load(), m, misses.Load())
	}
	h, r := hits.Load(), reads.Count()

	got, err := c.DumpIngested()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(posts) {
		t.Fatalf("dumped %d posts, ingested %d", len(got), len(posts))
	}
	for i := range posts {
		if postKey(got[i]) != postKey(posts[i]) {
			t.Fatalf("dumped post %d differs from the ingested one", i)
		}
	}
	if hits.Load() != h || misses.Load() != m || reads.Count() != r {
		t.Fatalf("the dump moved the block cache: hits %d → %d, misses %d → %d, decodes %d → %d",
			h, hits.Load(), m, misses.Load(), r, reads.Count())
	}
	search()
	if misses.Load() != m {
		t.Fatalf("the dump evicted the queries' working set: %d misses after it", misses.Load()-m)
	}
}

// TestTweetsPageCapped pins the server's page cap: however much a
// request asks for, one OpTweets page scans at most 2048 ids, and a
// reader advancing by Scanned still walks the whole log.
func TestTweetsPageCapped(t *testing.T) {
	p, _ := testPipeline(t)
	servers, clients := startCountedShardServers(t, p, 1, ingest.DefaultConfig())
	srv, c := servers[0], clients[0]
	if err := c.IngestBatch(streamPosts(p, 8402, 2500)); err != nil {
		t.Fatal(err)
	}
	base, err := c.BasePosts()
	if err != nil {
		t.Fatal(err)
	}

	snap := srv.Index().Snapshot()
	pages, from := 0, base
	for from < snap.NumTweets() {
		page, err := c.Tweets(from, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Posts) > 2048 || page.Scanned != len(page.Posts) || page.Scanned == 0 {
			t.Fatalf("page at %d: %d posts, scanned %d — want 1..2048, equal", from, len(page.Posts), page.Scanned)
		}
		i := 0
		snap.Scan(from, from+len(page.Posts), func(tw *microblog.Tweet) {
			if post := page.Posts[i]; post.Author != tw.Author || post.Text != tw.Text {
				t.Fatalf("page at %d: post %d is not log entry %d", from, i, from+i)
			}
			i++
		})
		from += page.Scanned
		pages++
	}
	if from != base+2500 || pages != 2 {
		t.Fatalf("paging by Scanned ended at %d after %d pages, want %d after 2", from, pages, base+2500)
	}
}

// TestExchangeStaleRetry drives the one exchange through each kind of
// caller with the pooled connection killed under it. The three reads
// succeed on exactly one extra dial — Info decodes and releases,
// SearchStats keeps the fresh connection checked out as its view, a cold
// Epoch hands it to the subscription reader — and the write fails with
// no extra dial and nothing applied: reads are re-sent once, writes
// never (TestWritesAreNeverRetried holds the write side's full story).
func TestExchangeStaleRetry(t *testing.T) {
	p, _ := testPipeline(t)
	servers, clients := startCountedShardServers(t, p, 1, ingest.DefaultConfig())
	srv, clean := servers[0], clients[0]
	ctx := context.Background()
	terms := []string{"49ers", "nfl"}
	wantRows, wantMatched, wantStats, v, err := clean.SearchStats(ctx, terms, false, nil, nil)
	if err != nil || len(wantRows) == 0 {
		t.Fatalf("reference search: %d rows, err %v", len(wantRows), err)
	}
	v.Release()

	cases := []struct {
		name  string
		write bool
		call  func(t *testing.T, c *transport.RemoteShard) error
	}{
		{name: "Info", call: func(t *testing.T, c *transport.RemoteShard) error {
			_, err := c.Info()
			return err
		}},
		{name: "SearchStats", call: func(t *testing.T, c *transport.RemoteShard) error {
			rows, matched, stats, view, err := c.SearchStats(ctx, terms, false, nil, nil)
			if err != nil {
				return err
			}
			if matched != wantMatched || len(rows) != len(wantRows) || len(stats) != len(wantStats) {
				t.Fatalf("re-sent search: matched %d rows %d stats %d, clean %d/%d/%d",
					matched, len(rows), len(stats), wantMatched, len(wantRows), len(wantStats))
			}
			for i := range wantRows {
				if rows[i] != wantRows[i] || stats[i] != wantStats[i] {
					t.Fatalf("re-sent search: row %d differs from a clean client's", i)
				}
			}
			// The fresh connection is the view: a top-up runs on it, and
			// Release pools it for the next request — neither dials.
			if _, err := view.Stats(ctx, []world.UserID{rows[0].User}, nil); err != nil {
				t.Fatalf("top-up on the view: %v", err)
			}
			view.Release()
			_, err = c.Info()
			return err
		}},
		{name: "Epoch", call: func(t *testing.T, c *transport.RemoteShard) error {
			_, err := c.Epoch()
			if err == nil && !c.Subscribed() {
				t.Error("cold Epoch succeeded without a subscription")
			}
			return err
		}},
		{name: "IngestBatch", write: true, call: func(t *testing.T, c *transport.RemoteShard) error {
			return c.IngestBatch(streamPosts(p, 8403, 1))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := fault.NewDialer()
			cfg := testClientConfig()
			cfg.Dial = d.Dial
			c := transport.NewRemoteShard(srv.Addr().String(), cfg)
			defer c.Close()
			if _, err := c.Info(); err != nil { // pools one connection
				t.Fatal(err)
			}
			d.KillAll()
			held := srv.Index().Snapshot().NumTweets()

			err := tc.call(t, c)
			wantDials := int64(2)
			if tc.write {
				wantDials = 1
				if err == nil {
					t.Fatal("write on a dead pooled connection succeeded — it was re-sent")
				}
			} else if err != nil {
				t.Fatalf("read on a dead pooled connection failed instead of re-sending: %v", err)
			}
			if got := c.Dials(); got != wantDials {
				t.Fatalf("%d dials in all, want %d", got, wantDials)
			}
			if got := srv.Index().Snapshot().NumTweets(); got != held {
				t.Fatalf("server log grew %d → %d", held, got)
			}
		})
	}
}
