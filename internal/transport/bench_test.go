// Benchmarks for the wire: scatter-gather query latency when every
// shard sits behind a loopback TCP round trip
// (BenchmarkRemoteSearchSharded*, compared against the in-process
// BenchmarkLiveSearchSharded* numbers in internal/shard — the delta is
// the price of the process boundary: since the OpSearchStats composite,
// one round trip per shard per query on a single-shard deployment,
// plus at most one top-up round trip per shard when N > 1 —
// encode/decode and kernel socket hops on top), the warm epoch-sample
// cost on a subscribed client (BenchmarkRemoteEpochSample — a memory
// read, no frames), the routed write (BenchmarkRemoteIngest) and the
// isolated frame codec cost (BenchmarkWireSearchCodec).
// BENCHMARKS.md records the per-PR numbers. The per-shard round trips
// go out one after another on the query's goroutine, so multi-shard
// remote latency here is the sum of the shards' round trips, on any
// number of cores.
package transport_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/world"
)

// benchRemoteCluster boots n loopback shard servers holding the base
// partition plus `posts` streamed posts, quiesced, and returns the
// remote detector.
func benchRemoteCluster(b *testing.B, n, posts int) *core.ShardedLiveDetector {
	p, _ := testPipeline(b)
	clients := startShardServers(b, p, n, ingest.DefaultConfig())
	backends := make([]shard.Backend, n)
	for i, c := range clients {
		backends[i] = c
	}
	cluster := shard.NewCluster(p.World, backends...)
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(19))
	batch := make([]microblog.Post, posts)
	for i := range batch {
		batch[i] = stream.Next()
	}
	if err := cluster.IngestBatch(batch); err != nil {
		b.Fatal(err)
	}
	if err := cluster.Quiesce(); err != nil {
		b.Fatal(err)
	}
	return core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)
}

// benchRemoteSearch measures steady-state scatter-gather latency with
// every shard behind loopback TCP: per query, each shard costs one
// OpSearchStats composite round trip on a pooled connection, plus (only
// when N > 1 and foreign candidates exist) one top-up OpStats round
// trip against the pinned snapshot.
func benchRemoteSearch(b *testing.B, shards int) {
	d := benchRemoteCluster(b, shards, 2048)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, _ := d.Search("49ers")
		n = len(results)
	}
	b.ReportMetric(float64(n), "experts")
	b.ReportMetric(float64(shards), "shards")
	if pq, _ := d.PartialStats(); pq != 0 {
		b.Fatalf("%d partial queries during benchmark", pq)
	}
}

func BenchmarkRemoteSearchSharded1(b *testing.B) { benchRemoteSearch(b, 1) }
func BenchmarkRemoteSearchSharded4(b *testing.B) { benchRemoteSearch(b, 4) }

// BenchmarkRemoteEpochSample measures the serving cache's per-request
// freshness check on a warm subscribed client: the epoch vector is a
// local atomic read per shard — no frames, no syscalls — which is what
// the push channel buys over the old per-sample epoch probe.
func BenchmarkRemoteEpochSample(b *testing.B) {
	p, _ := testPipeline(b)
	clients := startShardServers(b, p, 2, ingest.DefaultConfig())
	cluster := shard.NewCluster(p.World, clients[0], clients[1])
	vec, err := cluster.EpochVector(nil) // warm: subscribes both clients
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range clients {
		if !c.Subscribed() {
			b.Fatal("warmup did not subscribe")
		}
	}
	rtts := clients[0].EpochRTTs() + clients[1].EpochRTTs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vec, err = cluster.EpochVector(vec[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := clients[0].EpochRTTs() + clients[1].EpochRTTs() - rtts; got != 0 {
		b.Fatalf("%d warm samples spent %d epoch round trips, want 0", b.N, got)
	}
}

// BenchmarkRemoteIngest measures routed write throughput over the
// wire: one OpIngest frame per post on a pooled connection.
func BenchmarkRemoteIngest(b *testing.B) {
	p, _ := testPipeline(b)
	clients := startShardServers(b, p, 2, ingest.DefaultConfig())
	cluster := shard.NewCluster(p.World, clients[0], clients[1])
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(23))
	posts := make([]microblog.Post, 4096)
	for i := range posts {
		posts[i] = stream.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(posts) // a batch of one, cut from the prepared posts
		if err := cluster.IngestBatch(posts[j : j+1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireSearchCodec isolates the codec from the socket: encode
// plus decode of a representative composite response (32 candidate
// rows and their 32 denominator triples under OpSearchStats), the
// marginal CPU the wire adds to the in-process gather path.
func BenchmarkWireSearchCodec(b *testing.B) {
	rows := make([]expertise.RawCandidate, 32)
	stats := make([]expertise.UserStats, len(rows))
	for i := range rows {
		rows[i] = expertise.RawCandidate{
			User: world.UserID(7 * (1 + i)), Tweets: i % 5, Mentions: i % 3, Retweets: i % 11,
		}
		stats[i] = expertise.UserStats{Tweets: 40 + i, Mentions: 3 * i, Retweets: 17 * i}
	}
	var frame, payloadBuf, readBuf []byte
	var rowScratch []expertise.RawCandidate
	var statScratch []expertise.UserStats
	var r bytes.Reader
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payloadBuf = transport.AppendSearchStatsResp(payloadBuf[:0], transport.SearchStatsResp{Matched: 64, Rows: rows, Stats: stats})
		frame = transport.AppendFrame(frame[:0], transport.OpSearchStats, payloadBuf)
		r.Reset(frame)
		_, payload, buf, err := transport.ReadFrame(&r, readBuf)
		if err != nil {
			b.Fatal(err)
		}
		readBuf = buf
		resp, _, err := transport.ConsumeSearchStatsResp(rowScratch, statScratch, payload)
		if err != nil || len(resp.Rows) != len(rows) || len(resp.Stats) != len(stats) {
			b.Fatal(err)
		}
		rowScratch, statScratch = resp.Rows, resp.Stats
	}
	b.ReportMetric(float64(len(frame)), "frame-bytes")
}
