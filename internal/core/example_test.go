package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/domains"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/shard"
	"repro/internal/world"
)

// ExampleShardedLiveDetector shows the scatter-gather read path over an
// author-partitioned stream: posts route to their author's shard, a
// query fans out across every shard's snapshot, and the per-shard
// candidates merge into one globally ranked answer. The cluster's epoch
// vector (one component per shard) is what the serving cache
// invalidates on.
func ExampleShardedLiveDetector() {
	w := world.Build(world.TinyConfig())
	r := shard.New(microblog.BuildCorpus(w, nil), 4, ingest.DefaultConfig())
	defer r.Close()

	r.IngestBatch([]microblog.Post{{Author: 3, Text: "rust borrow checker tips"}})
	r.IngestBatch([]microblog.Post{{Author: 7, Text: "the borrow checker explained"}})

	// An empty collection means no query expansion — fine for a demo;
	// production passes the mined domain collection.
	d := core.NewShardedLiveDetectorOver(&domains.Collection{}, r, core.DefaultOnlineConfig())
	experts, trace := d.Search("borrow checker")
	fmt.Println("matched tweets:", trace.MatchedTweets)
	fmt.Println("experts:", len(experts))
	fmt.Println("epoch vector components:", len(d.EpochVector(nil)))
	// Output:
	// matched tweets: 2
	// experts: 2
	// epoch vector components: 4
}
