package replica_test

import (
	"context"
	"testing"

	"repro/internal/expertise"
	"repro/internal/ingest"
	"repro/internal/race"
	"repro/internal/replica"
	"repro/internal/shard"
)

// TestReplicaReadAllocs pins the replica read path: with warm buffers, a
// composite search through a two-replica Set, and the release of its
// view, allocate exactly what the same call on one bare Local does —
// the rotation, the freshness and health checks and the pooled view
// wrapper add nothing. Skipped under -race, where sync.Pool drops Puts.
func TestReplicaReadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	p, _ := testPipeline(t)
	icfg := ingest.Config{DisableCompactor: true}
	bare := shard.NewLocal(ingest.New(p.Corpus, icfg))
	defer bare.Close()
	set, err := replica.NewSet([]shard.Backend{
		shard.NewLocal(ingest.New(p.Corpus, icfg)),
		shard.NewLocal(ingest.New(p.Corpus, icfg)),
	}, replica.Config{Backoff: shard.DefaultBackoff()})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	ctx := context.Background()
	terms := []string{"49ers"}
	allocs := func(b shard.Backend) float64 {
		var raw []expertise.RawCandidate
		var stats []expertise.UserStats
		read := func() {
			var v shard.View
			var err error
			raw, _, stats, v, err = b.SearchStats(ctx, terms, false, raw, stats)
			if err != nil {
				t.Fatal(err)
			}
			v.Release()
		}
		// Warm every replica's pools and the caller's buffers: the set
		// rotates its reads across both.
		read()
		read()
		if len(raw) == 0 {
			t.Fatal("\"49ers\" matched no candidates")
		}
		return testing.AllocsPerRun(100, read)
	}
	if viaSet, viaLocal := allocs(set), allocs(bare); viaSet != viaLocal {
		t.Fatalf("a read through the replica set allocates %v, a bare Local %v", viaSet, viaLocal)
	}
}
