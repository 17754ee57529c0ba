// Benchmarks for the sharded streaming subsystem: scatter-gather read
// latency at increasing shard counts (BenchmarkLiveSearchSharded*,
// compared against the single-node BenchmarkLiveSearch* numbers in
// internal/ingest), routed write throughput (BenchmarkShardedIngest)
// and the vector-epoch sample cost (BenchmarkEpochVectorSample). Mixed
// read/write serving is measured end to end by the mixed_ingest
// workload of bench/, whose interleave is pinned. CHANGES.md and
// BENCHMARKS.md record the per-PR measurements. The scatter asks its
// shards one after another on the query's goroutine, so multi-shard
// latency here is the sum of the shards' work on any number of cores.
package shard_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/shard"
)

// benchCluster returns a quiesced all-local cluster over the shared
// tiny pipeline with n posts already routed.
func benchCluster(b *testing.B, shards, posts int) (*core.Pipeline, *shard.Cluster) {
	p, _ := testPipeline(b)
	r := localCluster(b, p, shards, ingest.DefaultConfig())
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(11))
	for i := 0; i < posts; i++ {
		r.IngestBatch([]microblog.Post{stream.Next()})
	}
	r.Quiesce()
	return p, r
}

// benchShardedSearch measures steady-state scatter-gather query
// latency over a quiesced cluster holding the base corpus plus 2048
// streamed posts.
func benchShardedSearch(b *testing.B, shards int) {
	p, r := benchCluster(b, shards, 2048)
	defer r.Close()
	d := core.NewShardedLiveDetectorOver(p.Collection, r, p.Cfg.Online)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, _ := d.Search("49ers")
		n = len(results)
	}
	b.ReportMetric(float64(n), "experts")
	b.ReportMetric(float64(shards), "shards")
}

func BenchmarkLiveSearchSharded1(b *testing.B) { benchShardedSearch(b, 1) }
func BenchmarkLiveSearchSharded4(b *testing.B) { benchShardedSearch(b, 4) }
func BenchmarkLiveSearchSharded8(b *testing.B) { benchShardedSearch(b, 8) }

// BenchmarkShardedIngest measures single-writer routed write
// throughput: one avalanche hash plus the target shard's full ingest
// path (tokenize, append, seal, publish).
func BenchmarkShardedIngest(b *testing.B) {
	p, _ := testPipeline(b)
	r := localCluster(b, p, 4, ingest.DefaultConfig())
	defer r.Close()
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(13))
	posts := make([]microblog.Post, 4096)
	for i := range posts {
		posts[i] = stream.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A batch of one, cut from the prepared posts: the row prices the
		// route and the index, not a slice literal escaping to the heap.
		j := i % len(posts)
		r.IngestBatch(posts[j : j+1])
	}
}

// BenchmarkEpochVectorSample isolates the per-request cost the serving
// layer pays to sample the vector epoch, which scales with N.
func BenchmarkEpochVectorSample(b *testing.B) {
	for _, shards := range []int{1, 4, 8, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p, _ := testPipeline(b)
			r := localCluster(b, p, shards, ingest.DefaultConfig())
			defer r.Close()
			buf := make([]uint64, 0, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = r.EpochVector(buf)
			}
		})
	}
}
