package ingest_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/race"
	"repro/internal/serve"
)

// writeBytesPerPost bounds TestWriteBytesPerPost: measured at 445.5
// B/post (613.4 when each batch rendered into a fresh array and each
// generation grew its term index by doubling), with a 10 % margin for
// toolchain drift.
const writeBytesPerPost = 490

// TestIngestBatchSingleEpoch pins the batch-publish contract: a K-post
// batch — even one spanning several seals — advances the epoch by
// exactly 1, and therefore costs the serving cache exactly one
// invalidation, not K. (The compactor is disabled so no background
// publish can interleave with the measurement.)
func TestIngestBatchSingleEpoch(t *testing.T) {
	p, _ := testPipeline(t)
	idx := ingest.New(p.Corpus, ingest.Config{SealThreshold: 16, CompactFanIn: 3, DisableCompactor: true})
	defer idx.Close()
	live := core.NewLiveDetector(p.Collection, idx, p.Cfg.Online)
	srv := serve.New(live, serve.Config{CacheSize: 64})

	srv.Search("49ers")
	if st := srv.Stats(); st.CacheEntries != 1 {
		t.Fatalf("warmup cached %d entries, want 1", st.CacheEntries)
	}

	before := idx.Epoch()
	idx.IngestBatch(streamPosts(p, 83, 100)) // spans 6 seals at threshold 16
	if st := idx.Stats(); st.Seals < 2 {
		t.Fatalf("batch did not span multiple seals: %+v", st)
	}
	if after := idx.Epoch(); after != before+1 {
		t.Fatalf("one batch advanced epoch by %d, want 1", after-before)
	}

	srv.Search("49ers")
	if st := srv.Stats(); st.Invalidations != 1 {
		t.Fatalf("one batch cost the cache %d invalidations, want 1", st.Invalidations)
	}
}

// TestSnapshotTweetAcrossLayouts pins Snapshot.Scan over every layout
// the segment machinery can produce — fragmented, compacted, and
// spilled to disk. The whole-log scan crosses every boundary the scan
// can get wrong: the base-corpus edge, the first and last global id of
// each sealed segment (including post-compaction rebased starts), and
// the active tail.
func TestSnapshotTweetAcrossLayouts(t *testing.T) {
	p, _ := testPipeline(t)
	posts := streamPosts(p, 89, 200)
	cold := p.Corpus.ExtendedWith(posts)

	for _, tc := range []struct {
		name string
		cfg  ingest.Config
	}{
		{"fragmented", ingest.Config{SealThreshold: 24, CompactFanIn: 3, DisableCompactor: true}},
		{"compacted", ingest.Config{SealThreshold: 24, CompactFanIn: 3}},
		{"spilled", ingest.Config{SealThreshold: 24, CompactFanIn: 3,
			SpillDir: t.TempDir(), SpillThreshold: 48}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx := ingest.New(p.Corpus, tc.cfg)
			defer idx.Close()
			// 200 posts at threshold 24 leave a non-empty tail (200 = 8*24
			// + 8), so the sweep crosses base, segments and tail.
			idx.IngestBatch(posts)
			idx.Quiesce()
			snap := idx.Snapshot()
			if tc.name == "compacted" || tc.name == "spilled" {
				if idx.Stats().Compactions == 0 {
					t.Fatalf("layout %q saw no compaction", tc.name)
				}
			}
			if tc.name == "spilled" && idx.Stats().DiskSegments == 0 {
				t.Fatal("layout \"spilled\" has no disk segments")
			}
			if snap.NumTweets() != cold.NumTweets() {
				t.Fatalf("snapshot has %d tweets, cold %d", snap.NumTweets(), cold.NumTweets())
			}
			gid := 0
			snap.Scan(0, snap.NumTweets(), func(got *microblog.Tweet) {
				want := cold.Tweet(microblog.TweetID(gid))
				// The ID field is segment-local by contract; every other
				// field must match the cold rebuild at the same global id.
				if got.Author != want.Author || got.Text != want.Text ||
					got.RetweetCount != want.RetweetCount || got.Topic != want.Topic {
					t.Fatalf("tweet %d:\n  live %+v\n  cold %+v", gid, got, want)
				}
				gid++
			})
		})
	}
}

// TestWriteBytesPerPost bounds what the write path allocates per post
// in mixed_ingest's write shape: 8-post IngestBatch calls (one OpIngest
// frame each) of a fixed stream into a default-seal index that runs no
// compactor, so the count is the writer's own — rendering, the tail's
// indexes, the seals — and no merge. Skipped under -race, which adds
// allocations of its own.
func TestWriteBytesPerPost(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on the write path")
	}
	p, _ := testPipeline(t)
	posts := streamPosts(p, 29, 4*2048)
	idx := ingest.New(p.Corpus, ingest.Config{DisableCompactor: true})
	defer idx.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for at := 0; at < len(posts); at += 8 {
		idx.IngestBatch(posts[at : at+8])
	}
	runtime.ReadMemStats(&after)
	perPost := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(posts))
	t.Logf("%.1f B/post over %d posts in 8-post batches (%d seals)", perPost, len(posts), idx.Stats().Seals)
	if perPost > writeBytesPerPost {
		t.Fatalf("the write path allocated %.1f B/post, over its %d B/post bound", perPost, writeBytesPerPost)
	}
}
