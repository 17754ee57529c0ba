// Benchmarks for the replication layer: what a replica set adds to
// the scatter-gather read path when everything is healthy
// (BenchmarkReplicatedSearch{1,2,3} — the R=1 row is the regression
// gate against the in-process LiveSearchSharded1 number, the R>1 rows
// price the rotation and freshness checks, which should be flat: one
// read goes to one replica regardless of R), and what one dead
// follower costs once backoff has muted it (BenchmarkFailoverSearch —
// the steady state should match the healthy single-replica cost,
// because a muted replica is skipped without dialing). BENCHMARKS.md
// records the per-PR numbers.
package replica_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/replica"
	"repro/internal/shard"
)

// benchReplicated boots a 1-shard × r-replica all-local cluster with
// 2048 streamed posts replicated and quiesced, and returns the
// detector plus the cluster handles.
func benchReplicated(b *testing.B, r int, cfg replica.Config, wrapFollowers bool) (*core.ShardedLiveDetector, *replCluster) {
	p, _ := testPipeline(b)
	rc := newReplicated(b, p, 1, r, ingest.DefaultConfig(), cfg, wrapFollowers)
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(37))
	batch := make([]microblog.Post, 2048)
	for i := range batch {
		batch[i] = stream.Next()
	}
	if err := rc.cluster.IngestBatch(batch); err != nil {
		b.Fatal(err)
	}
	if err := rc.cluster.Quiesce(); err != nil {
		b.Fatal(err)
	}
	return core.NewShardedLiveDetectorOver(p.Collection, rc.cluster, p.Cfg.Online), rc
}

// benchReplicatedSearch measures steady-state read latency through an
// r-replica set: per query, the rotation picks one up-to-date healthy
// replica and the whole search→stats conversation runs there.
func benchReplicatedSearch(b *testing.B, r int) {
	d, _ := benchReplicated(b, r, replica.DefaultConfig(), false)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, _ := d.Search("49ers")
		n = len(results)
	}
	b.ReportMetric(float64(n), "experts")
	b.ReportMetric(float64(r), "replicas")
	if pq, _ := d.PartialStats(); pq != 0 {
		b.Fatalf("%d partial queries during benchmark", pq)
	}
}

func BenchmarkReplicatedSearch1(b *testing.B) { benchReplicatedSearch(b, 1) }
func BenchmarkReplicatedSearch2(b *testing.B) { benchReplicatedSearch(b, 2) }
func BenchmarkReplicatedSearch3(b *testing.B) { benchReplicatedSearch(b, 3) }

// BenchmarkFailoverSearch measures the steady-state cost of one dead
// follower: the first read after the kill pays the failed attempt and
// trips the backoff, then every further read skips the corpse without
// dialing — the number should sit on top of the healthy
// single-replica cost, and the failover counter prices how rarely the
// probe fires.
func BenchmarkFailoverSearch(b *testing.B) {
	cfg := replica.Config{Backoff: shard.Backoff{Initial: time.Hour, Max: time.Hour}}
	d, rc := benchReplicated(b, 2, cfg, true)
	rc.faults[0].Kill()
	// Trip the backoff outside the timer: one failed attempt, one
	// failover.
	if results, _ := d.Search("49ers"); results == nil {
		b.Fatal("failover search returned no result slice")
	}
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, _ := d.Search("49ers")
		n = len(results)
	}
	b.StopTimer()
	b.ReportMetric(float64(n), "experts")
	b.ReportMetric(float64(d.Failovers()), "failovers")
	if pq, _ := d.PartialStats(); pq != 0 {
		b.Fatalf("%d partial queries during benchmark", pq)
	}
}
