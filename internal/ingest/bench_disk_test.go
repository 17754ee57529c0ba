// Disk-tier benchmarks, backing the BENCHMARKS.md claim that hot-term
// search over a spilled corpus stays within 2× of the in-memory
// BenchmarkLiveSearchESharp latency. Named Disk* (and not *LiveSearch*)
// so `make bench-disk` and `make bench-ingest` partition cleanly.
package ingest_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/shard"
)

// benchDiskSearch measures steady-state e# query latency over a live
// index whose sealed segments were all rewritten to the disk tier.
func benchDiskSearch(b *testing.B, blockCache int) {
	p, _ := testPipeline(b)
	idx := ingest.New(p.Corpus, ingest.Config{
		SealThreshold: 512, CompactFanIn: 4,
		SpillDir: b.TempDir(), SpillThreshold: 512, SpillBlockCache: blockCache,
	})
	defer idx.Close()
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(19))
	for i := 0; i < 2048; i++ {
		idx.Ingest(stream.Next())
	}
	idx.Quiesce()
	if st := idx.Stats(); st.DiskSegments == 0 {
		b.Fatalf("benchmark index has no disk segments: %+v", st)
	}
	online := p.Cfg.Online
	online.MatchWorkers = 1
	live := core.NewLiveDetector(p.Collection, idx, online)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, _ := live.Search("49ers")
		n = len(results)
	}
	b.ReportMetric(float64(n), "experts")
	b.ReportMetric(float64(idx.Stats().DiskSegments), "disksegs")
}

// BenchmarkDiskSearchHot is the headline disk-tier number: repeated
// hot-term searches against spilled segments, decoded blocks served
// from the LRU. Compare with BenchmarkLiveSearchESharp (all in memory).
func BenchmarkDiskSearchHot(b *testing.B) { benchDiskSearch(b, 0) }

// BenchmarkDiskSearchUncached disables the block cache, so every
// posting block decodes off the map on every query — the worst-case
// cold-read path.
func BenchmarkDiskSearchUncached(b *testing.B) { benchDiskSearch(b, -1) }

// BenchmarkDiskSpill measures the spill itself: writing one sealed
// 512-post segment's in-memory image to a file, fsync-free, and mapping
// it back (Open). This is the background cost the compactor pays per
// segment that crosses the threshold.
func BenchmarkDiskSpill(b *testing.B) {
	p, _ := testPipeline(b)
	dir := b.TempDir()
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(23))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx := ingest.New(p.Corpus, ingest.Config{
			SealThreshold: 512, CompactFanIn: 4, DisableCompactor: true,
			SpillDir: dir, SpillThreshold: 512,
		})
		for j := 0; j < 512; j++ {
			idx.Ingest(stream.Next())
		}
		b.StartTimer()
		idx.Quiesce() // exactly one spill: 1 sealed segment ≥ threshold
		b.StopTimer()
		if st := idx.Stats(); st.Spills != 1 {
			b.Fatalf("expected exactly 1 spill, got %+v", st)
		}
		idx.Close()
		b.StartTimer()
	}
}

// BenchmarkDiskLogScan pages the whole log of a spilled 80k-post index
// the way OpTweets serves a resharding drain or a dump: 2048-post pages
// through shard.Local.PagePosts (the cold_disk shardd's layout: seal
// 128, fan-in 4, spill 512). One op is one page-through. retained-B is
// the heap still live after a GC once every page is dropped — what
// paging leaves behind in the index, its block caches included.
func BenchmarkDiskLogScan(b *testing.B) {
	p, _ := testPipeline(b)
	idx := ingest.New(p.Corpus, ingest.Config{
		SealThreshold: 128, CompactFanIn: 4, SpillDir: b.TempDir(), SpillThreshold: 512,
	})
	defer idx.Close()
	posts := streamPosts(p, 37, 80_000)
	for len(posts) > 0 {
		n := min(512, len(posts))
		idx.IngestBatch(posts[:n])
		posts = posts[n:]
	}
	idx.Quiesce()
	if st := idx.Stats(); st.DiskSegments == 0 {
		b.Fatalf("benchmark index has no disk segments: %+v", st)
	}
	local := shard.NewLocal(idx)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := int64(ms.HeapAlloc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for from := p.Corpus.NumTweets(); ; {
			page, scanned, total, err := local.PagePosts(from, 2048, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			logSink += len(page)
			if from += scanned; from >= total {
				break
			}
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(int64(ms.HeapAlloc)-before), "retained-B")
}

var logSink int
