// Benchmarks for the streaming subsystem: write-path throughput
// (BenchmarkIngest*) and read-path latency over a live, segmented
// index (BenchmarkLiveSearch*), compared against the frozen-index
// OnlineSearch* numbers in the repo root. CHANGES.md records the
// per-PR measurements.
package ingest_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/microblog"
)

// benchIndex returns a live index over the shared tiny pipeline with
// n posts already ingested and — unless the config opts out of
// compaction to keep the index fragmented — compaction drained.
func benchIndex(b *testing.B, n int, cfg ingest.Config) (*core.Pipeline, *ingest.Index) {
	p, _ := testPipeline(b)
	idx := ingest.New(p.Corpus, cfg)
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(11))
	for i := 0; i < n; i++ {
		idx.Ingest(stream.Next())
	}
	if !cfg.DisableCompactor {
		idx.Quiesce()
	}
	return p, idx
}

// BenchmarkIngest measures single-writer throughput through the full
// path: tokenize, append, seal at threshold, publish a snapshot per
// post (amortized sealing and compaction included).
func BenchmarkIngest(b *testing.B) {
	p, _ := testPipeline(b)
	idx := ingest.New(p.Corpus, ingest.DefaultConfig())
	defer idx.Close()
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(13))
	posts := make([]microblog.Post, 4096)
	for i := range posts {
		posts[i] = stream.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Ingest(posts[i%len(posts)])
	}
}

// BenchmarkDiskCompactMerge is a compaction on its own, every part on
// disk: four 8 192-post disk segments merged into one disk segment, the
// file written and opened — what the compactor does with a run whose
// result crosses the spill threshold (diskseg.EncodeMerged, no post
// decoded into heap). BenchmarkIngest only shows compactions amortized
// over the posts between them.
func BenchmarkDiskCompactMerge(b *testing.B) {
	p, _ := testPipeline(b)
	idx := ingest.New(p.Corpus, ingest.Config{
		SealThreshold: 8192, CompactFanIn: 4, DisableCompactor: true,
		SpillDir: b.TempDir(), SpillThreshold: 8192,
	})
	defer idx.Close()
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(19))
	posts := make([]microblog.Post, 4*8192)
	for i := range posts {
		posts[i] = stream.Next()
	}
	idx.IngestBatch(posts)
	idx.SpillAll()
	if n := len(idx.DiskSegments()); n != 4 {
		b.Fatalf("%d disk segments, want 4", n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.MergeLayout(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestParallel measures contended writer throughput: the
// write lock serializes appends, so this bounds how much concurrent
// producers lose to contention.
func BenchmarkIngestParallel(b *testing.B) {
	p, _ := testPipeline(b)
	idx := ingest.New(p.Corpus, ingest.DefaultConfig())
	defer idx.Close()
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(100+seed.Add(1)))
		for pb.Next() {
			idx.Ingest(stream.Next())
		}
	})
}

// benchLiveSearch measures steady-state query latency over a live
// index holding the base corpus plus 2048 streamed posts.
func benchLiveSearch(b *testing.B, query string, baseline bool, cfg ingest.Config) {
	p, idx := benchIndex(b, 2048, cfg)
	defer idx.Close()
	online := p.Cfg.Online
	online.MatchWorkers = 1
	live := core.NewLiveDetector(p.Collection, idx, online)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if baseline {
			n = len(live.SearchBaseline(query))
		} else {
			results, _ := live.Search(query)
			n = len(results)
		}
	}
	b.ReportMetric(float64(n), "experts")
	b.ReportMetric(float64(idx.Snapshot().NumSegments()), "segments")
}

func BenchmarkLiveSearchESharp(b *testing.B) {
	benchLiveSearch(b, "49ers", false, ingest.DefaultConfig())
}

func BenchmarkLiveSearchBaseline(b *testing.B) {
	benchLiveSearch(b, "49ers", true, ingest.DefaultConfig())
}

// BenchmarkLiveSearchFragmented holds the same content in many small
// never-compacted segments — the read-path cost compaction removes.
func BenchmarkLiveSearchFragmented(b *testing.B) {
	benchLiveSearch(b, "49ers", false,
		ingest.Config{SealThreshold: 64, CompactFanIn: 4, DisableCompactor: true})
}

// BenchmarkLiveSearchUnderIngest measures query latency under write
// churn: every iteration ingests one post before searching, so every
// query observes a brand-new snapshot and pays the cold-tail lazy
// indexing a frozen-snapshot benchmark never sees. The write is paced
// with the reads — an unthrottled background writer on this single-core
// container would grow the index without bound and starve the
// searches — so each op is one ingest (~4µs) plus one cold-view search.
func BenchmarkLiveSearchUnderIngest(b *testing.B) {
	p, idx := benchIndex(b, 1024, ingest.DefaultConfig())
	defer idx.Close()
	online := p.Cfg.Online
	online.MatchWorkers = 1
	live := core.NewLiveDetector(p.Collection, idx, online)
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(17))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Ingest(stream.Next())
		live.Search("49ers")
	}
}
