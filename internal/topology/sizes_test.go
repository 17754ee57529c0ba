package topology

import (
	"testing"

	"repro/internal/microblog"
	"repro/internal/shard"
	"repro/internal/world"
)

// TestPartitionSizesFromCounts pins the handshake's figure: summing the
// per-user base counts gives each shard exactly the tweet count of its
// partition of the base corpus, for every shard count from 1 to 4.
func TestPartitionSizesFromCounts(t *testing.T) {
	w := world.Build(world.TinyConfig())
	base := microblog.Generate(w, microblog.TinyGenConfig())
	counts := make([]int, len(w.Users))
	for u := range counts {
		counts[u] = base.NumTweetsBy(world.UserID(u))
	}
	for n := 1; n <= 4; n++ {
		sizes := partitionSizes(counts, n)
		for i, got := range sizes {
			if want := shard.Partition(base, i, n).NumTweets(); got != want {
				t.Errorf("n=%d shard %d: %d base tweets from the counts, %d in the partition", n, i, got, want)
			}
		}
	}
}
