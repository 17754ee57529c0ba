package core

import (
	"testing"

	"repro/internal/ingest"
	"repro/internal/obs"
)

// TestShardedDetectorObsInstrumentation pins the scatter-gather
// instrumentation from inside the package: per-shard histograms and
// spans are recorded when a registry is wired, the accessors agree
// with the cluster, and — the must-not-perturb bar — the instrumented
// detector ranks identically to an un-instrumented one.
func TestShardedDetectorObsInstrumentation(t *testing.T) {
	p := tinyPipeline(t)
	r := localCluster(t, p, 2, ingest.DefaultConfig())
	defer r.Close()

	reg := obs.NewRegistry()
	cfg := p.Cfg.Online
	cfg.Obs = reg
	d := NewShardedLiveDetectorOver(p.Collection, r, cfg)
	plainCfg := p.Cfg.Online
	plain := NewShardedLiveDetectorOver(p.Collection, r, plainCfg)

	experts, trace := d.Search("49ers")
	wantExperts, wantTrace := plain.Search("49ers")
	if len(experts) != len(wantExperts) {
		t.Fatalf("instrumented returned %d experts, plain %d", len(experts), len(wantExperts))
	}
	for i := range wantExperts {
		if experts[i] != wantExperts[i] {
			t.Fatalf("rank %d diverged: %+v vs %+v", i, experts[i], wantExperts[i])
		}
	}
	if trace.MatchedTweets != wantTrace.MatchedTweets {
		t.Fatalf("matched %d vs %d", trace.MatchedTweets, wantTrace.MatchedTweets)
	}

	// The instrumented trace carries spans; the plain one must not.
	if len(trace.Shards) != 2 {
		t.Fatalf("trace has %d spans, want 2: %+v", len(trace.Shards), trace)
	}
	if wantTrace.Shards != nil {
		t.Fatalf("un-instrumented trace grew spans: %+v", wantTrace.Shards)
	}
	var matched int
	for i, sp := range trace.Shards {
		if sp.Shard != i || sp.Err != "" {
			t.Errorf("span %d: %+v", i, sp)
		}
		if sp.SearchNS <= 0 {
			t.Errorf("span %d has no scatter timing", i)
		}
		matched += sp.Matched
	}
	if matched != trace.MatchedTweets {
		t.Errorf("span matched sum %d != trace matched %d", matched, trace.MatchedTweets)
	}
	if trace.MergeRankNS <= 0 {
		t.Errorf("merge/rank not timed: %+v", trace)
	}

	// Registry rows moved once per shard, and merge/rank once.
	rows := map[string]int64{}
	for _, m := range reg.Snapshot() {
		rows[m.Name] = m.Value
	}
	for _, name := range []string{
		"sharded_shard0_search_ns_count",
		"sharded_shard1_search_ns_count",
		"sharded_merge_rank_ns_count",
	} {
		if rows[name] != 1 {
			t.Errorf("%s = %d, want 1", name, rows[name])
		}
	}
	if rows["sharded_shard_errors"] != 0 {
		t.Errorf("sharded_shard_errors = %d, want 0", rows["sharded_shard_errors"])
	}

	// The accessor agrees with the cluster it wraps.
	if d.Cluster() != r {
		t.Error("Cluster does not round-trip construction")
	}
	if v := d.EpochVector(nil); len(v) != 2 {
		t.Errorf("EpochVector = %v, want 2 components", v)
	}
	if pq, se := d.PartialStats(); pq != 0 || se != 0 {
		t.Errorf("healthy cluster reported partials: %d/%d", pq, se)
	}
	if d.Failovers() != 0 {
		t.Errorf("Failovers = %d, want 0", d.Failovers())
	}
}
