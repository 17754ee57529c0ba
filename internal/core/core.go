// Package core assembles e#, the paper's contribution: a recall-oriented
// expert-detection pipeline that augments the Pal & Counts baseline with
// query expansion over a collection of expertise domains mined from a
// search query log.
//
// The offline stage (BuildCollection) extracts the term similarity graph
// from the click log, clusters it with the parallel modularity algorithm
// and indexes the resulting domains. The online stage (Detector) matches
// an incoming query against a domain "exactly and in order, after
// lower-casing", runs the base expert search once per related term,
// unions the matched tweets and ranks the pooled candidates once — the
// two-phase architecture of Figure 1.
//
// The online stage exists twice, on purpose. Detector is the paper
// pipeline's engine: it searches a frozen corpus in one pass, drives
// the evaluation and the experiments, and is the cold reference every
// equivalence test compares against — so it is never served and never
// changes with the serving stack. ShardedLiveDetector (sharded.go) is
// the one served read path: a scatter-gather over the shard set of
// internal/shard — one pinned snapshot per shard (base corpus + sealed
// segments + active tail, acquired with a single atomic load, so
// tweets keep arriving while searches run), per-shard matching and
// raw-candidate extraction, a global merge of the integer feature
// counters, one ranking pass. A single streaming index (LiveDetector)
// and a frozen corpus are its one-shard cases. The served path is held
// to one bar: quiesced, it ranks bit-identically to a cold Detector
// over the same posts. See ARCHITECTURE.md at the repo root for the
// full layer-by-layer tour.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/community"
	"repro/internal/domains"
	"repro/internal/expertise"
	"repro/internal/microblog"
	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/simgraph"
	"repro/internal/world"
)

// OfflineConfig tunes the offline collection build.
type OfflineConfig struct {
	// Graph configures similarity-graph construction (Section 4.1).
	Graph simgraph.Config
	// Resolution discretizes edge weights into integer units (footnote 1).
	Resolution int
	// Community configures the clustering stage (Section 4.2).
	Community community.Options
	// UseSQLBackend runs clustering on the relational engine instead of
	// the direct in-memory implementation. Both produce identical
	// domains; the SQL path exists because the paper's deployment does.
	UseSQLBackend bool
}

// DefaultOfflineConfig returns the offline defaults.
func DefaultOfflineConfig() OfflineConfig {
	return OfflineConfig{
		Graph:      simgraph.DefaultConfig(),
		Resolution: 20,
		Community:  community.DefaultOptions(),
	}
}

// BuildResult carries the offline artifacts and their statistics.
type BuildResult struct {
	Graph      *simgraph.Graph
	Clustering *community.Result
	Collection *domains.Collection
	// GraphStats and ClusterStats are Table 9 rows for the two offline
	// steps.
	GraphStats   querylog.Stats
	ClusterStats querylog.Stats
}

// BuildCollection runs the offline stage on an aggregated click log.
func BuildCollection(log *querylog.Log, cfg OfflineConfig) (*BuildResult, error) {
	if cfg.Resolution <= 0 {
		cfg.Resolution = 20
	}
	start := time.Now()
	graph := simgraph.Build(log, cfg.Graph)
	graphStats := querylog.Stats{
		Stage:    "graph",
		Workers:  cfg.Graph.Workers,
		Duration: time.Since(start),
		Records:  graph.NumEdges(),
	}

	start = time.Now()
	ig := graph.Discretize(cfg.Resolution)
	var res *community.Result
	var err error
	if cfg.UseSQLBackend {
		res, err = community.DetectSQL(ig, cfg.Community)
		if err != nil {
			return nil, fmt.Errorf("core: sql clustering: %w", err)
		}
	} else {
		res = community.DetectParallel(ig, cfg.Community)
	}
	clusterStats := querylog.Stats{
		Stage:    "clustering",
		Workers:  cfg.Community.Workers,
		Duration: time.Since(start),
		Records:  res.NumCommunities,
	}

	return &BuildResult{
		Graph:        graph,
		Clustering:   res,
		Collection:   domains.FromClustering(graph, res),
		GraphStats:   graphStats,
		ClusterStats: clusterStats,
	}, nil
}

// OnlineConfig tunes the online detector.
type OnlineConfig struct {
	// MaxExpansionTerms caps how many related terms augment the query
	// (most central terms first). Zero means 10.
	MaxExpansionTerms int
	// MatchWorkers is ignored: every search matches its terms and
	// asks its shards one after another on the caller's goroutine.
	//
	// Deprecated: nothing reads it; it remains until the bench module
	// stops assigning it.
	MatchWorkers int
	// Expertise parameterizes the underlying Pal & Counts ranker.
	Expertise expertise.Params
	// Obs, when non-nil, attaches the detector to a metrics registry.
	// ShardedLiveDetector then times each shard's scatter and gather
	// phases into per-shard latency histograms, times the global
	// merge/rank tail, and fills SearchTrace.Shards with per-query
	// spans for the serving layer's slow-query log. Nil (the default)
	// keeps the read path exactly as fast and allocation-free as
	// un-instrumented — no clock reads, no span slices.
	Obs *obs.Registry
}

// DefaultOnlineConfig returns the online defaults.
func DefaultOnlineConfig() OnlineConfig {
	return OnlineConfig{
		MaxExpansionTerms: 10,
		Expertise:         expertise.DefaultParams(),
	}
}

// Detector is the online e# engine over a frozen corpus — the paper
// pipeline's engine and the cold reference of the equivalence tests.
// It answers both e# queries (Search) and baseline queries
// (SearchBaseline) so evaluations compare the two on identical state.
// It is not a serving backend: internal/serve fronts the
// ShardedLiveDetector, which serves a frozen corpus as an index that
// never ingests.
type Detector struct {
	collection *domains.Collection
	corpus     *microblog.Corpus
	base       *expertise.Detector
	cfg        OnlineConfig
	scratch    sync.Pool // of *searchScratch, reused across queries
}

// searchScratch holds the per-query buffers of the online stage: one
// matched-tweet buffer per expansion term, the k-way merge frontier,
// and the merged union. It is pooled so steady-state queries run
// near-allocation-free.
type searchScratch struct {
	lists    [][]microblog.TweetID
	frontier [][]microblog.TweetID
	merged   []microblog.TweetID
}

// NewDetector wires the online stage.
func NewDetector(coll *domains.Collection, corpus *microblog.Corpus, cfg OnlineConfig) *Detector {
	if cfg.MaxExpansionTerms <= 0 {
		cfg.MaxExpansionTerms = 10
	}
	d := &Detector{
		collection: coll,
		corpus:     corpus,
		base:       expertise.New(corpus, cfg.Expertise),
		cfg:        cfg,
	}
	d.scratch.New = func() any { return &searchScratch{} }
	return d
}

// Collection returns the domain collection backing expansion.
func (d *Detector) Collection() *domains.Collection { return d.collection }

// Base returns the underlying baseline detector.
func (d *Detector) Base() *expertise.Detector { return d.base }

// Expand returns the expansion terms for a query (excluding the query
// itself). Empty means the query matched no domain or an orphan.
func (d *Detector) Expand(query string) []string {
	return d.collection.Expand(query, d.cfg.MaxExpansionTerms)
}

// SearchTrace reports what the online stage did for one query.
type SearchTrace struct {
	Query string
	// Expansion lists the related terms appended to the query. From the
	// served detector it is the admission table's slice, shared by every
	// search for the query: read-only, never sorted or appended to.
	Expansion []string
	// MatchedTweets is the size of the unioned matched-tweet set.
	MatchedTweets int
	// Missing names the shards the answer lacks (ShardedLiveDetector
	// only); zero means the answer is whole.
	Missing MissingShards
	// ExpandDuration and SearchDuration split the online latency into
	// the Table 9 "Expansion" and "Detection" rows. Only the cold
	// Detector fills them; the served detector reads no clock for them.
	ExpandDuration time.Duration
	SearchDuration time.Duration
	// Shards holds per-shard scatter/gather spans and MergeRankNS the
	// global merge+rank tail — filled only by ShardedLiveDetector, and
	// only while OnlineConfig.Obs attaches a registry (the serving
	// layer's slow-query log rides them). Nil/zero otherwise.
	Shards      []obs.ShardSpan
	MergeRankNS int64
}

// Search runs the full e# online stage: expansion, matching the query
// and then each expansion term in a loop on the caller's goroutine, a
// k-way merge union, and a single ranking pass. It is safe for
// concurrent use; per-query buffers are pooled, so steady-state queries
// allocate almost nothing beyond the returned result slice.
func (d *Detector) Search(query string) ([]expertise.Expert, SearchTrace) {
	trace := SearchTrace{Query: query}

	start := time.Now()
	trace.Expansion = d.Expand(query)
	trace.ExpandDuration = time.Since(start)

	start = time.Now()
	s := d.scratch.Get().(*searchScratch)
	nTerms := 1 + len(trace.Expansion)
	for len(s.lists) < nTerms {
		s.lists = append(s.lists, nil)
	}
	lists := s.lists[:nTerms]
	lists[0] = d.corpus.MatchAppend(query, lists[0])
	for i, term := range trace.Expansion {
		lists[i+1] = d.corpus.MatchAppend(term, lists[i+1])
	}
	s.merged, s.frontier = expertise.MergeTweetsInto(s.merged, s.frontier, lists...)
	trace.MatchedTweets = len(s.merged)
	results := d.base.Rank(d.base.CandidatesFromTweets(s.merged))
	d.scratch.Put(s)
	trace.SearchDuration = time.Since(start)
	return results, trace
}

// SearchBaseline runs the unexpanded Pal & Counts baseline.
func (d *Detector) SearchBaseline(query string) []expertise.Expert {
	return d.base.Search(query)
}

// PipelineConfig configures an end-to-end build from a synthetic world.
type PipelineConfig struct {
	World     world.Config
	Log       querylog.GenConfig
	Tweets    microblog.GenConfig
	Offline   OfflineConfig
	Online    OnlineConfig
	MinClicks int
	// ShardDir, when non-empty, routes the click log through sharded
	// files on disk (measuring real I/O for Table 9); otherwise the log
	// is aggregated in memory.
	ShardDir string
}

// DefaultPipelineConfig returns the laptop-scale configuration used by
// `esharp experiments -scale default`: it reproduces every figure in
// minutes.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		World:     world.DefaultConfig(),
		Log:       querylog.DefaultGenConfig(),
		Tweets:    microblog.DefaultGenConfig(),
		Offline:   DefaultOfflineConfig(),
		Online:    DefaultOnlineConfig(),
		MinClicks: 20,
	}
}

// TinyPipelineConfig returns a miniature configuration for tests.
func TinyPipelineConfig() PipelineConfig {
	cfg := DefaultPipelineConfig()
	cfg.World = world.TinyConfig()
	cfg.Log = querylog.TinyGenConfig()
	cfg.Tweets = microblog.TinyGenConfig()
	cfg.MinClicks = 5
	return cfg
}

// Pipeline bundles every artifact of an end-to-end build.
type Pipeline struct {
	Cfg        PipelineConfig
	World      *world.World
	Log        *querylog.Log
	Graph      *simgraph.Graph
	Clustering *community.Result
	Collection *domains.Collection
	Corpus     *microblog.Corpus
	Detector   *Detector
	// Stages collects the Table 9 resource rows in execution order.
	Stages []querylog.Stats
}

// BuildCorpus generates the world and its base corpus alone: post for
// post BuildPipeline(cfg).Corpus, without the click log and the offline
// stage. A process that serves posts and no expansion (cmd/shardd)
// builds only this.
func BuildCorpus(cfg PipelineConfig) *microblog.Corpus {
	return microblog.Generate(world.Build(cfg.World), cfg.Tweets)
}

// BuildPipeline generates the world, click log and corpus, then runs
// the offline stage and wires the online detector.
func BuildPipeline(cfg PipelineConfig) (*Pipeline, error) {
	p := &Pipeline{Cfg: cfg}
	p.World = world.Build(cfg.World)

	gen := querylog.NewGenerator(p.World, cfg.Log)
	if cfg.ShardDir != "" {
		genStats, err := gen.Generate(cfg.ShardDir)
		if err != nil {
			return nil, fmt.Errorf("core: generate log: %w", err)
		}
		p.Stages = append(p.Stages, genStats)
		log, aggStats, err := querylog.AggregateShards(cfg.ShardDir, cfg.MinClicks)
		if err != nil {
			return nil, fmt.Errorf("core: aggregate log: %w", err)
		}
		p.Log = log
		p.Stages = append(p.Stages, aggStats)
	} else {
		start := time.Now()
		p.Log = querylog.AggregateRecords(gen.GenerateRecords(), cfg.MinClicks)
		p.Stages = append(p.Stages, querylog.Stats{
			Stage:    "extraction",
			Workers:  1,
			Duration: time.Since(start),
			Records:  p.Log.NumQueries(),
		})
	}

	build, err := BuildCollection(p.Log, cfg.Offline)
	if err != nil {
		return nil, err
	}
	p.Graph = build.Graph
	p.Clustering = build.Clustering
	p.Collection = build.Collection
	p.Stages = append(p.Stages, build.GraphStats, build.ClusterStats)

	start := time.Now()
	p.Corpus = microblog.Generate(p.World, cfg.Tweets)
	p.Stages = append(p.Stages, querylog.Stats{
		Stage:    "corpus",
		Workers:  1,
		Duration: time.Since(start),
		Records:  p.Corpus.NumTweets(),
	})

	p.Detector = NewDetector(p.Collection, p.Corpus, cfg.Online)
	return p, nil
}

// RefreshConfig controls a weekly refresh of the offline collection.
type RefreshConfig struct {
	// Log generates the new period's click events (give it a fresh Seed).
	Log querylog.GenConfig
	// Decay scales the previous log's click counts before merging
	// (1 keeps full history, 0 discards it).
	Decay float64
	// MinClicks is the noise filter applied to the merged log.
	MinClicks int
}

// Refresh folds a new period of search behaviour into the pipeline —
// the paper's offline stage "runs weekly on a production cluster". The
// previous log decays, the new log merges in, and the similarity graph,
// clustering, domain collection and online detector are rebuilt. The
// tweet corpus is left untouched: refresh changes what queries expand
// to, not what was posted.
func (p *Pipeline) Refresh(cfg RefreshConfig) error {
	if cfg.Decay < 0 || cfg.Decay > 1 {
		return fmt.Errorf("core: refresh decay %v outside [0,1]", cfg.Decay)
	}
	if cfg.MinClicks <= 0 {
		cfg.MinClicks = p.Cfg.MinClicks
	}
	start := time.Now()
	gen := querylog.NewGenerator(p.World, cfg.Log)
	fresh := querylog.AggregateRecords(gen.GenerateRecords(), 1)
	p.Log = querylog.Merge(p.Log.Scale(cfg.Decay), fresh, cfg.MinClicks)
	p.Stages = append(p.Stages, querylog.Stats{
		Stage:    "refresh",
		Workers:  1,
		Duration: time.Since(start),
		Records:  p.Log.NumQueries(),
	})

	build, err := BuildCollection(p.Log, p.Cfg.Offline)
	if err != nil {
		return fmt.Errorf("core: refresh rebuild: %w", err)
	}
	p.Graph = build.Graph
	p.Clustering = build.Clustering
	p.Collection = build.Collection
	p.Stages = append(p.Stages, build.GraphStats, build.ClusterStats)
	p.Detector = NewDetector(p.Collection, p.Corpus, p.Cfg.Online)
	return nil
}
