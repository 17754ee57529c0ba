// Disk-tier benchmarks, backing the BENCHMARKS.md claim that hot-term
// search over a spilled corpus stays within 2× of the in-memory
// BenchmarkLiveSearchESharp latency. Named Disk* (and not *LiveSearch*)
// so `make bench-disk` and `make bench-ingest` partition cleanly.
package ingest_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/shard"
)

// BenchmarkDiskSearch is the headline disk-tier number: steady-state
// e# query latency over a live index whose sealed segments were all
// rewritten to the disk tier, every posting block decoded off the map
// on every query. Compare with BenchmarkLiveSearchESharp (all in
// memory, the same decode off an in-memory image).
func BenchmarkDiskSearch(b *testing.B) {
	p, _ := testPipeline(b)
	idx := ingest.New(p.Corpus, ingest.Config{
		SealThreshold: 512, CompactFanIn: 4,
		SpillDir: b.TempDir(), SpillThreshold: 512,
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
	live := core.NewLiveDetector(p.Collection, idx, p.Cfg.Online)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, _ := live.Search("49ers")
		n = len(results)
	}
	b.ReportMetric(float64(n), "experts")
	b.ReportMetric(float64(idx.Stats().DiskSegments), "disksegs")
}

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
// the way OpTweets serves a dump: 2048-post pages
// through shard.Local.PagePosts (the cold_disk shardd's layout:
// ingest.DefaultConfig with a SpillDir — seal 2048, fan-in 4, spill
// 8192). One op is one page-through. retained-B is the heap still live
// once every page is dropped, less the heap live before the first page
// (both read by settledHeap) — what paging leaves behind in the index.
func BenchmarkDiskLogScan(b *testing.B) {
	p, _ := testPipeline(b)
	cfg := ingest.DefaultConfig()
	cfg.SpillDir = b.TempDir()
	idx := ingest.New(p.Corpus, cfg)
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
	before := settledHeap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for from := p.Corpus.NumTweets(); ; {
			page, total := local.PagePosts(from, 2048)
			logSink += len(page)
			if from += len(page); from >= total {
				break
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(settledHeap()-before), "retained-B")
	runtime.KeepAlive(local) // live in both readings, not only the first
}

// settledHeap returns the live heap once a collection frees nothing
// more. A collection queues the cleanups of the snapshots it retires,
// and what those cleanups release is freed only by a later one, so a
// heap read after a single collection may still hold garbage that a
// later reading does not.
func settledHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	for range 10 {
		prev := ms.HeapAlloc
		time.Sleep(time.Millisecond) // the queued cleanups run
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc >= prev {
			break
		}
	}
	return int64(ms.HeapAlloc)
}

var logSink int
