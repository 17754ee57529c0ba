// Benchmarks for the streaming subsystem: write-path throughput
// (BenchmarkIngest*) and read-path latency over a live, segmented
// index (BenchmarkLiveSearch*), compared against the frozen-index
// OnlineSearch* numbers in the repo root. CHANGES.md records the
// per-PR measurements.
package ingest_test

import (
	"runtime"
	"runtime/metrics"
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

// BenchmarkIngestPreload is the cold_disk shardd's preload in one
// process: 80k stream posts in 512-post IngestBatch calls (the wire's
// ingest frame) into a default-config index over the tiny base, then
// Quiesce, all inside the timer. heap keeps every segment in memory,
// disk spills under a SpillDir. It reports the write path's throughput,
// what it allocates (B/post and allocs/post, the timed stretch over the
// posts preloaded) and the GC cycles a preload completes (gc/80k-posts),
// the seals and compactions one preload makes and live-B — the heap a
// preloaded index holds after a collection, base included: each index
// gets a base generated for it alone and dropped once New returns. It
// fails if the preload did not seal at every threshold or spill
// exactly when asked.
func BenchmarkIngestPreload(b *testing.B) {
	p, _ := testPipeline(b)
	posts := streamPosts(p, 1, 80_000)
	for _, disk := range []bool{false, true} {
		name := "heap"
		if disk {
			name = "disk"
		}
		b.Run(name, func(b *testing.B) {
			var st ingest.IndexStats
			var live int64
			var cost writeCost
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := ingest.DefaultConfig()
				if disk {
					cfg.SpillDir = b.TempDir()
				}
				before := liveHeap()
				base := microblog.FromTweets(p.World, microblog.GenerateTweets(p.World, p.Cfg.Tweets))
				cost.start()
				b.StartTimer()
				idx := ingest.New(base, cfg)
				base = nil
				for rest := posts; len(rest) > 0; {
					n := min(512, len(rest))
					idx.IngestBatch(rest[:n])
					rest = rest[n:]
				}
				idx.Quiesce()
				b.StopTimer()
				cost.stop()
				live += liveHeap() - before
				st = idx.Stats()
				idx.Close()
				if st.Seals != int64(len(posts)/cfg.SealThreshold) || disk != (st.DiskSegments > 0) {
					b.Fatalf("preload built an unexpected layout: %+v", st)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.N*len(posts))/b.Elapsed().Seconds(), "posts/s")
			cost.report(b, b.N*len(posts))
			b.ReportMetric(float64(st.Seals), "seals")
			b.ReportMetric(float64(st.Compactions), "compactions")
			b.ReportMetric(float64(live)/float64(b.N), "live-B")
		})
	}
}

// BenchmarkIngestSmallBatches is mixed_ingest's write shape in one
// process: each op is one 8-post IngestBatch call — one OpIngest frame
// of that workload's clients — into a default-config index over the
// tiny base, its compactor running, so seals and merges land in the
// ops that cause them. Every 80k posts the index is replaced by a fresh
// one, outside the timer, so the ops repeat one preload's shape rather
// than grow one index without bound. It reports B/post, allocs/post and
// gc/80k-posts as BenchmarkIngestPreload does.
func BenchmarkIngestSmallBatches(b *testing.B) {
	const batch = 8
	p, _ := testPipeline(b)
	posts := streamPosts(p, 1, 80_000)
	idx := ingest.New(p.Corpus, ingest.DefaultConfig())
	var cost writeCost
	b.ResetTimer()
	cost.start()
	for i, at := 0, 0; i < b.N; i, at = i+1, at+batch {
		if at+batch > len(posts) {
			b.StopTimer()
			cost.stop()
			idx.Close()
			idx = ingest.New(p.Corpus, ingest.DefaultConfig())
			at = 0
			cost.start()
			b.StartTimer()
		}
		idx.IngestBatch(posts[at : at+batch])
	}
	cost.stop()
	b.StopTimer()
	idx.Close()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "posts/s")
	cost.report(b, b.N*batch)
}

// writeCost sums, over the stretches between its start and stop calls,
// the heap bytes and objects allocated and the GC cycles completed, as
// runtime/metrics counts them.
type writeCost struct {
	samples [3]metrics.Sample
	from    [3]uint64
	sum     [3]uint64
}

func (c *writeCost) read() [3]uint64 {
	for k, name := range [3]string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"} {
		c.samples[k].Name = name
	}
	metrics.Read(c.samples[:])
	var v [3]uint64
	for k := range v {
		v[k] = c.samples[k].Value.Uint64()
	}
	return v
}

func (c *writeCost) start() { c.from = c.read() }

func (c *writeCost) stop() {
	to := c.read()
	for k := range to {
		c.sum[k] += to[k] - c.from[k]
	}
}

// report adds B/post and allocs/post over posts, and the GC cycles
// per 80k posts (gc/80k-posts: one preload's worth).
func (c *writeCost) report(b *testing.B, posts int) {
	b.ReportMetric(float64(c.sum[0])/float64(posts), "B/post")
	b.ReportMetric(float64(c.sum[1])/float64(posts), "allocs/post")
	b.ReportMetric(float64(c.sum[2])*80_000/float64(posts), "gc/80k-posts")
}

// liveHeap returns the heap bytes still reachable after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
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

// benchLiveSearch measures steady-state query latency over a live
// index holding the base corpus plus 2048 streamed posts.
func benchLiveSearch(b *testing.B, query string, cfg ingest.Config) {
	p, idx := benchIndex(b, 2048, cfg)
	defer idx.Close()
	live := core.NewLiveDetector(p.Collection, idx, p.Cfg.Online)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, _ := live.Search(query)
		n = len(results)
	}
	b.ReportMetric(float64(n), "experts")
	b.ReportMetric(float64(idx.Snapshot().NumSegments()), "segments")
}

func BenchmarkLiveSearchESharp(b *testing.B) {
	benchLiveSearch(b, "49ers", ingest.DefaultConfig())
}

// BenchmarkLiveSearchFragmented holds the same content in many small
// never-compacted segments — the read-path cost compaction removes.
func BenchmarkLiveSearchFragmented(b *testing.B) {
	benchLiveSearch(b, "49ers",
		ingest.Config{SealThreshold: 64, CompactFanIn: 4, DisableCompactor: true})
}

// BenchmarkLiveSearchAfterWrite is the first search of a fresh
// snapshot on its own, the in-package twin of the bench waterfall's
// ingest.after_write row: each op is one search right after a
// one-post ingest, and only the search is timed and counted (the write
// runs with the timer stopped). Its allocs/op equal a steady search's,
// because a snapshot reads its tail where the writer keeps it.
func BenchmarkLiveSearchAfterWrite(b *testing.B) {
	p, idx := benchIndex(b, 1024, ingest.DefaultConfig())
	defer idx.Close()
	live := core.NewLiveDetector(p.Collection, idx, p.Cfg.Online)
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(19))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx.Ingest(stream.Next())
		b.StartTimer()
		live.Search("49ers")
	}
}

// BenchmarkLiveSearchUnderIngest measures query latency under write
// churn: every iteration ingests one post before searching, so every
// query observes a brand-new snapshot. The write is paced with the
// reads — an unthrottled background writer on a single core would grow
// the index without bound and starve the searches — so each op is one
// ingest (~4µs) plus one fresh-view search.
func BenchmarkLiveSearchUnderIngest(b *testing.B) {
	p, idx := benchIndex(b, 1024, ingest.DefaultConfig())
	defer idx.Close()
	live := core.NewLiveDetector(p.Collection, idx, p.Cfg.Online)
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(17))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Ingest(stream.Next())
		live.Search("49ers")
	}
}
