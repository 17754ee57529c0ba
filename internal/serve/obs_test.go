package serve

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
)

// obsRow finds one row in a registry snapshot; missing rows fail the
// test.
func obsRow(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q not in registry snapshot", name)
	return 0
}

// TestServerObsTracesAndMetrics drives an instrumented server over an
// instrumented sharded backend and checks the whole observability
// story: outcome labels, the request-latency histogram, per-shard
// spans in the slow log, and — the must-not-perturb bar — results
// identical to an un-instrumented server.
func TestServerObsTracesAndMetrics(t *testing.T) {
	p := testPipeline(t)
	r := localCluster(t, p, 4, ingest.DefaultConfig())
	defer r.Close()

	reg := obs.NewRegistry()
	online := p.Cfg.Online
	online.Obs = reg
	sharded := core.NewShardedLiveDetectorOver(p.Collection, r, online)
	s := New(sharded, Config{CacheSize: 4, Obs: reg})

	first := s.Search("49ers")
	second := s.Search("49ers")
	if !sameExperts(first, second) {
		t.Fatal("cache hit diverged from the miss that filled it")
	}
	if got := obsRow(t, reg, "serve_queries"); got != 2 {
		t.Errorf("serve_queries = %d, want 2", got)
	}
	if got := obsRow(t, reg, "serve_cache_hits"); got != 1 {
		t.Errorf("serve_cache_hits = %d, want 1", got)
	}
	if got := obsRow(t, reg, "serve_cache_misses"); got != 1 {
		t.Errorf("serve_cache_misses = %d, want 1", got)
	}
	if got := obsRow(t, reg, "serve_request_ns_count"); got != 2 {
		t.Errorf("serve_request_ns_count = %d, want 2", got)
	}
	// The sharded detector's scatter-gather instrumentation moved too.
	if got := obsRow(t, reg, "sharded_merge_rank_ns_count"); got != 1 {
		t.Errorf("sharded_merge_rank_ns_count = %d, want 1 (one uncached search)", got)
	}
	for i := 0; i < 4; i++ {
		name := "sharded_shard" + string(rune('0'+i)) + "_search_ns_count"
		if got := obsRow(t, reg, name); got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}

	// SlowLog (it keeps everything): newest first, the hit
	// then the miss; the miss carries the scatter-gather spans.
	snap := s.SlowLog().Snapshot()
	if len(snap) != 2 {
		t.Fatalf("slow log kept %d traces, want 2: %+v", len(snap), snap)
	}
	hit, miss := snap[0], snap[1]
	if hit.Outcome != obs.OutcomeHit || hit.Query != "49ers" || hit.Shards != nil {
		t.Errorf("hit trace = %+v", hit)
	}
	if miss.Outcome != obs.OutcomeMiss || miss.Query != "49ers" {
		t.Errorf("miss trace = %+v", miss)
	}
	// Both traces name the term set they shared an answer under — the
	// query and its expansion — so an operator can tell which slow-log
	// lines were one answer.
	wantSet := sharded.TermSetKey([]byte("49ers"))
	if hit.TermSet != wantSet || miss.TermSet != wantSet || !strings.Contains(wantSet, "\t") {
		t.Errorf("traces name term sets %q (hit) and %q (miss), want the expanded set %q", hit.TermSet, miss.TermSet, wantSet)
	}
	if len(miss.Shards) != 4 {
		t.Fatalf("miss trace has %d shard spans, want 4: %+v", len(miss.Shards), miss)
	}
	var matched int
	for i, sp := range miss.Shards {
		if sp.Shard != i {
			t.Errorf("span %d labeled shard %d", i, sp.Shard)
		}
		if sp.SearchNS <= 0 {
			t.Errorf("span %d has no scatter timing: %+v", i, sp)
		}
		if sp.Err != "" {
			t.Errorf("span %d unexpectedly failed: %+v", i, sp)
		}
		matched += sp.Matched
	}
	if matched != miss.MatchedTweets {
		t.Errorf("span matched sum %d != trace MatchedTweets %d", matched, miss.MatchedTweets)
	}
	if miss.MergeRankNS <= 0 || miss.TotalNS < miss.MergeRankNS {
		t.Errorf("merge/rank timing inconsistent: %+v", miss)
	}

	// Instrumentation must not change rankings: an un-instrumented
	// server over the same detector agrees bit for bit. (Run last —
	// this search moves the shared detector's histograms.)
	plain := New(sharded, Config{CacheSize: 4})
	if want := plain.Search("49ers"); !sameExperts(first, want) {
		t.Fatal("instrumented result diverged from un-instrumented server")
	}
}

// TestServerObsKeepsEveryRequest checks that the counters move and that
// the ring keeps every request, however fast.
func TestServerObsKeepsEveryRequest(t *testing.T) {
	p := testPipeline(t)
	reg := obs.NewRegistry()
	s := New(frozenBackend(p), Config{CacheSize: 4, Obs: reg})

	s.Search("nfl")
	if got := obsRow(t, reg, "serve_queries"); got != 1 {
		t.Errorf("serve_queries = %d, want 1", got)
	}
	if got := obsRow(t, reg, "serve_request_ns_count"); got != 1 {
		t.Errorf("serve_request_ns_count = %d, want 1", got)
	}
	if got := s.SlowLog().Snapshot(); len(got) != 1 || got[0].Query != "nfl" {
		t.Errorf("slow log = %+v, want the one trace for \"nfl\"", got)
	}
}

// TestServerObsNilRegistry pins the zero-cost path: no registry, no
// slow log, and the serving behavior is unchanged.
func TestServerObsNilRegistry(t *testing.T) {
	p := testPipeline(t)
	s := New(frozenBackend(p), DefaultConfig())
	if s.SlowLog() != nil {
		t.Fatal("un-instrumented server grew a slow log")
	}
	got := s.Search("nfl")
	want, _ := p.Detector.Search("nfl")
	if !sameExperts(got, want) {
		t.Fatal("un-instrumented serve diverged from detector")
	}
}
