package core

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// sharedPipeline builds the tiny pipeline once; it is read-only after
// construction so tests share it.
var (
	pipeOnce sync.Once
	pipe     *Pipeline
	pipeErr  error
)

func tinyPipeline(t testing.TB) *Pipeline {
	t.Helper()
	pipeOnce.Do(func() {
		pipe, pipeErr = BuildPipeline(TinyPipelineConfig())
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe
}

func TestBuildPipelineArtifacts(t *testing.T) {
	p := tinyPipeline(t)
	if p.Log.NumQueries() == 0 {
		t.Error("empty log")
	}
	if p.Graph.NumEdges() == 0 {
		t.Error("empty graph")
	}
	if p.Collection.NumDomains() == 0 {
		t.Error("empty collection")
	}
	if p.Corpus.NumTweets() == 0 {
		t.Error("empty corpus")
	}
	if len(p.Stages) < 3 {
		t.Errorf("only %d stage stats recorded", len(p.Stages))
	}
}

// TestBuildCorpusMatchesPipeline pins the corpus a shard builds alone
// to the pipeline's, post for post: the handshake compares only counts.
func TestBuildCorpusMatchesPipeline(t *testing.T) {
	want := tinyPipeline(t).Corpus.Tweets()
	got := BuildCorpus(TinyPipelineConfig()).Tweets()
	if len(got) != len(want) {
		t.Fatalf("BuildCorpus made %d posts, BuildPipeline %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("post %d: BuildCorpus %+v, BuildPipeline %+v", i, got[i], want[i])
		}
	}
}

func TestExpansionContainsRelatedTerms(t *testing.T) {
	p := tinyPipeline(t)
	exp := p.Detector.Expand("49ers")
	if len(exp) == 0 {
		t.Fatal("no expansion for 49ers")
	}
	for _, term := range exp {
		if term == "49ers" {
			t.Error("expansion includes the query itself")
		}
	}
	// Expansion is capped.
	if len(exp) > 10 {
		t.Errorf("expansion has %d terms, cap 10", len(exp))
	}
}

func TestESharpFindsAtLeastBaseline(t *testing.T) {
	p := tinyPipeline(t)
	queries := []string{"49ers", "diabetes", "dow futures", "bluetooth speakers", "nfl", "sarah palin"}
	for _, q := range queries {
		base := p.Detector.SearchBaseline(q)
		esharp, _ := p.Detector.Search(q)
		if len(esharp) < len(base) && len(esharp) < p.Cfg.Online.Expertise.MaxResults {
			t.Errorf("%q: e# found %d < baseline %d (and not capped)", q, len(esharp), len(base))
		}
	}
}

func TestRecallGapClosedByExpansion(t *testing.T) {
	p := tinyPipeline(t)
	// "49ers schedule" has TweetRate 0.01: the baseline should find few
	// or no experts, e# should recover them via the community.
	q := "49ers schedule"
	base := p.Detector.SearchBaseline(q)
	esharp, trace := p.Detector.Search(q)
	if len(esharp) <= len(base) {
		t.Errorf("expansion did not help %q: baseline=%d e#=%d (expansion: %v)",
			q, len(base), len(esharp), trace.Expansion)
	}
}

func TestSearchTraceAccounting(t *testing.T) {
	p := tinyPipeline(t)
	results, trace := p.Detector.Search("49ers")
	if trace.Query != "49ers" {
		t.Error("trace query wrong")
	}
	if trace.MatchedTweets == 0 {
		t.Error("trace reports no matched tweets")
	}
	if len(results) == 0 {
		t.Error("no results")
	}
	if trace.SearchDuration <= 0 {
		t.Error("no search duration recorded")
	}
}

func TestOnlineLatencyWithinTable9Budget(t *testing.T) {
	// Table 9: expansion < 100ms, detection < 1s. Our laptop-scale
	// corpus must beat that comfortably.
	p := tinyPipeline(t)
	_, trace := p.Detector.Search("49ers")
	if trace.ExpandDuration > 100*time.Millisecond {
		t.Errorf("expansion took %v, budget 100ms", trace.ExpandDuration)
	}
	if trace.SearchDuration > time.Second {
		t.Errorf("detection took %v, budget 1s", trace.SearchDuration)
	}
}

func TestUnknownQueryStillSearchable(t *testing.T) {
	p := tinyPipeline(t)
	// A query outside every domain falls back to the plain search.
	results, trace := p.Detector.Search("zzzz nothing")
	if len(trace.Expansion) != 0 {
		t.Error("unknown query got expansion")
	}
	if results != nil {
		t.Error("unknown query returned results")
	}
}

func TestESharpPrecisionOnGroundTruth(t *testing.T) {
	p := tinyPipeline(t)
	w := p.World
	topicID, ok := w.KeywordOwner("49ers")
	if !ok {
		t.Fatal("49ers missing")
	}
	results, _ := p.Detector.Search("49ers")
	if len(results) == 0 {
		t.Fatal("no results")
	}
	relevant := 0
	for _, e := range results {
		if w.IsRelevantExpert(e.User, topicID) {
			relevant++
		}
	}
	frac := float64(relevant) / float64(len(results))
	if frac < 0.4 {
		t.Errorf("only %.0f%% of e# results are relevant", frac*100)
	}
}

func TestSQLBackendPipelineAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("sql backend pipeline skipped in -short")
	}
	cfg := TinyPipelineConfig()
	cfg.Log.Events = 20_000 // keep the relational join sizes test-friendly
	mem, err := BuildPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Offline.UseSQLBackend = true
	sql, err := BuildPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Collection.NumDomains() != sql.Collection.NumDomains() {
		t.Fatalf("backends disagree: %d vs %d domains",
			mem.Collection.NumDomains(), sql.Collection.NumDomains())
	}
	for i := 0; i < mem.Collection.NumDomains(); i++ {
		a := mem.Collection.Domain(int32(i))
		b := sql.Collection.Domain(int32(i))
		if a.Size() != b.Size() || a.Head() != b.Head() {
			t.Fatalf("domain %d differs between backends", i)
		}
	}
}

func TestBuildCollectionStats(t *testing.T) {
	p := tinyPipeline(t)
	build, err := BuildCollection(p.Log, DefaultOfflineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if build.GraphStats.Records != build.Graph.NumEdges() {
		t.Error("graph stats records mismatch")
	}
	if build.ClusterStats.Records != build.Clustering.NumCommunities {
		t.Error("cluster stats records mismatch")
	}
	if len(build.Clustering.Iterations) < 2 {
		t.Error("clustering trace too short")
	}
}

func TestShardedPipeline(t *testing.T) {
	cfg := TinyPipelineConfig()
	cfg.Log.Events = 20_000
	cfg.ShardDir = t.TempDir()
	p, err := BuildPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sharded path must record generate + extraction stages with real I/O.
	var sawGen, sawExtract bool
	for _, s := range p.Stages {
		if s.Stage == "generate" && s.BytesWritten > 0 {
			sawGen = true
		}
		if s.Stage == "extraction" && s.BytesRead > 0 {
			sawExtract = true
		}
	}
	if !sawGen || !sawExtract {
		t.Errorf("sharded pipeline stages incomplete: %+v", p.Stages)
	}
}

func TestDeterministicAcrossBuilds(t *testing.T) {
	cfg := TinyPipelineConfig()
	cfg.Log.Events = 20_000
	a, err := BuildPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := a.Detector.Search("49ers")
	rb, _ := b.Detector.Search("49ers")
	if len(ra) != len(rb) {
		t.Fatalf("result counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].User != rb[i].User || ra[i].Score != rb[i].Score {
			t.Fatalf("result %d differs across identical builds", i)
		}
	}
}

func TestWorldOracleAgreesWithDetector(t *testing.T) {
	p := tinyPipeline(t)
	// Every anchor query must be answerable by e#.
	answered := 0
	anchors := []string{"49ers", "diabetes", "nfl", "xbox", "nasdaq", "beyonce", "honda"}
	for _, q := range anchors {
		if _, ok := p.World.KeywordOwner(q); !ok {
			continue
		}
		if results, _ := p.Detector.Search(q); len(results) > 0 {
			answered++
		}
	}
	if answered < len(anchors)-1 {
		t.Errorf("e# answered only %d/%d anchor queries", answered, len(anchors))
	}
}

func BenchmarkESharpSearch(b *testing.B) {
	p := tinyPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Detector.Search("49ers")
	}
}

func BenchmarkBaselineSearch(b *testing.B) {
	p := tinyPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Detector.SearchBaseline("49ers")
	}
}

func BenchmarkBuildTinyPipeline(b *testing.B) {
	cfg := TinyPipelineConfig()
	cfg.Log.Events = 20_000
	for i := 0; i < b.N; i++ {
		if _, err := BuildPipeline(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRefreshRebuildsCollection(t *testing.T) {
	cfg := TinyPipelineConfig()
	cfg.Log.Events = 30_000
	p, err := BuildPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := p.Collection.NumDomains()
	beforeStages := len(p.Stages)

	refresh := RefreshConfig{Log: cfg.Log, Decay: 0.5, MinClicks: cfg.MinClicks}
	refresh.Log.Seed = 4242
	if err := p.Refresh(refresh); err != nil {
		t.Fatal(err)
	}
	if p.Collection.NumDomains() == 0 {
		t.Fatal("refresh emptied the collection")
	}
	if len(p.Stages) <= beforeStages {
		t.Error("refresh recorded no stage stats")
	}
	// Anchors survive a refresh: the 49ers domain must still exist and
	// still answer queries.
	if _, ok := p.Collection.Lookup("49ers"); !ok {
		t.Error("49ers domain lost in refresh")
	}
	results, _ := p.Detector.Search("49ers")
	if len(results) == 0 {
		t.Error("detector broken after refresh")
	}
	t.Logf("domains before=%d after=%d", before, p.Collection.NumDomains())
}

func TestRefreshRejectsBadDecay(t *testing.T) {
	p := tinyPipeline(t)
	if err := p.Refresh(RefreshConfig{Decay: 1.5}); err == nil {
		t.Error("decay 1.5 accepted")
	}
	if err := p.Refresh(RefreshConfig{Decay: -0.1}); err == nil {
		t.Error("negative decay accepted")
	}
}

func TestRefreshIsDeterministic(t *testing.T) {
	run := func() int {
		cfg := TinyPipelineConfig()
		cfg.Log.Events = 30_000
		p, err := BuildPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := RefreshConfig{Log: cfg.Log, Decay: 0.5}
		r.Log.Seed = 77
		if err := p.Refresh(r); err != nil {
			t.Fatal(err)
		}
		return p.Collection.NumDomains()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("refresh not deterministic: %d vs %d domains", a, b)
	}
}
