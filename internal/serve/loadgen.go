package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/microblog"
	"repro/internal/world"
)

// Sink is the write side a mixed load streams posts into: the shard
// set the server's backend reads (*shard.Cluster — for a single
// streaming index, the detector's one-shard Cluster()), or a
// *shard.Migration routing writes across a live reshard.
type Sink interface {
	// IngestBatch routes posts to their authors' shards (the one write
	// verb; the generator sends batches of one). A failed write (a
	// remote shard's transport) is dropped by the generator and not
	// counted as ingested.
	IngestBatch(posts []microblog.Post) error
	// World returns the generating world posts are drawn from.
	World() *world.World
	// Epoch identifies the sink's current view (the scalar digest of
	// its epoch vector), used to report the churn a run caused.
	Epoch() uint64
}

// LoadConfig parameterizes one load-generator run.
type LoadConfig struct {
	// Queries is the pool the generator cycles through (round-robin, so
	// runs are deterministic and every query gets equal weight).
	Queries []string
	// Total is the number of requests to issue.
	Total int
	// Workers is the number of concurrent client goroutines. Zero or
	// one means sequential.
	Workers int
	// BaselineEvery mixes a SearchBaseline request in every n-th
	// request (zero means e# queries only), exercising both endpoints
	// the way an A/B'd production front-end would.
	BaselineEvery int
}

// LoadResult reports one load-generator run.
type LoadResult struct {
	Queries  int
	Duration time.Duration
	// QPS is Queries / Duration.
	QPS float64
	// Answered counts requests that returned at least one expert.
	Answered int
	// Stats is the server counter snapshot taken over the run.
	Stats Stats
}

// searchClients starts the search side of a run under wg: workers
// clients (at least one, at most one per request) that together issue
// total requests. Each claims the next request number from a shared
// counter, asks the pool round-robin — every baselineEvery-th request
// on the baseline endpoint — and counts the answers that held at least
// one expert.
func searchClients(wg *sync.WaitGroup, s *Server, queries []string, total, workers, baselineEvery int, answered *atomic.Int64) {
	workers = min(max(workers, 1), total)
	var next atomic.Int64
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				q := queries[i%len(queries)]
				var experts int
				if baselineEvery > 0 && (i+1)%baselineEvery == 0 {
					experts = len(s.SearchBaseline(q))
				} else {
					experts = len(s.Search(q))
				}
				if experts > 0 {
					answered.Add(1)
				}
			}
		}()
	}
}

// RunLoad drives the server with cfg.Total requests spread over
// cfg.Workers concurrent clients and reports throughput. Server
// counters are reset at the start so Stats covers exactly this run.
func RunLoad(s *Server, cfg LoadConfig) LoadResult {
	if cfg.Total <= 0 || len(cfg.Queries) == 0 {
		return LoadResult{}
	}
	s.ResetStats()

	var answered atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	searchClients(&wg, s, cfg.Queries, cfg.Total, cfg.Workers, cfg.BaselineEvery, &answered)
	wg.Wait()
	dur := time.Since(start)

	return LoadResult{
		Queries:  cfg.Total,
		Duration: dur,
		QPS:      float64(cfg.Total) / dur.Seconds(),
		Answered: int(answered.Load()),
		Stats:    s.Stats(),
	}
}

// MixedLoadConfig parameterizes one mixed read/write run: search
// clients hammer the server while ingester goroutines stream live
// posts into the index the server's backend searches.
type MixedLoadConfig struct {
	// Queries is the search pool (round-robin).
	Queries []string
	// Searches is the total number of search requests; SearchWorkers
	// the concurrent clients issuing them (zero or one = sequential).
	Searches      int
	SearchWorkers int
	// Ingests is the total number of posts to stream; IngestWorkers
	// the concurrent writers (zero or one = a single writer). Each
	// worker draws from its own deterministic PostStream.
	Ingests       int
	IngestWorkers int
	// BaselineEvery mixes a SearchBaseline request in every n-th
	// search (zero means e# queries only).
	BaselineEvery int
	// Seed varies the post streams; worker w uses Seed+w.
	Seed uint64
	// Stream tunes post generation. A zero value means defaults.
	Stream microblog.StreamConfig
}

// MixedLoadResult reports one mixed read/write run.
type MixedLoadResult struct {
	Duration time.Duration
	// SearchQPS and IngestPerSec are the two throughputs over the
	// whole run (both sides run concurrently).
	Searches     int
	SearchQPS    float64
	Ingested     int
	IngestPerSec float64
	// Answered counts searches that returned at least one expert.
	Answered int
	// StartEpoch and EndEpoch bound the index churn the run caused.
	StartEpoch, EndEpoch uint64
	// Stats is the server counter snapshot taken over the run.
	Stats Stats
}

// RunMixedLoad drives the server with cfg.Searches requests while
// streaming cfg.Ingests posts into idx, and reports both throughputs.
// Either side may be empty: a write-only run still ingests, a
// read-only run is RunLoad. Server counters are reset at the start so
// Stats covers exactly this run. The server's backend should be the
// detector over idx — otherwise searches never observe the writes.
func RunMixedLoad(s *Server, idx Sink, cfg MixedLoadConfig) MixedLoadResult {
	if cfg.Searches < 0 || len(cfg.Queries) == 0 {
		cfg.Searches = 0
	}
	if cfg.Searches == 0 && cfg.Ingests <= 0 {
		return MixedLoadResult{}
	}
	ingestWorkers := max(cfg.IngestWorkers, 1)
	if cfg.Ingests <= 0 {
		ingestWorkers = 0
	}
	if stream := (microblog.StreamConfig{}); cfg.Stream == stream {
		cfg.Stream = microblog.DefaultStreamConfig(cfg.Seed)
	}
	s.ResetStats()
	startEpoch := idx.Epoch()

	var answered, ingested atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()

	for w := 0; w < ingestWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			streamCfg := cfg.Stream
			streamCfg.Seed = cfg.Seed + uint64(w)
			stream := microblog.NewPostStream(idx.World(), streamCfg)
			// Spread the total over the workers; the first takes the slack.
			n := cfg.Ingests / ingestWorkers
			if w == 0 {
				n += cfg.Ingests % ingestWorkers
			}
			batch := make([]microblog.Post, 1)
			for i := 0; i < n; i++ {
				batch[0] = stream.Next()
				if err := idx.IngestBatch(batch); err == nil {
					ingested.Add(1)
				}
			}
		}(w)
	}

	searchClients(&wg, s, cfg.Queries, cfg.Searches, cfg.SearchWorkers, cfg.BaselineEvery, &answered)
	wg.Wait()
	dur := time.Since(start)

	return MixedLoadResult{
		Duration:     dur,
		Searches:     cfg.Searches,
		SearchQPS:    float64(cfg.Searches) / dur.Seconds(),
		Ingested:     int(ingested.Load()),
		IngestPerSec: float64(ingested.Load()) / dur.Seconds(),
		Answered:     int(answered.Load()),
		StartEpoch:   startEpoch,
		EndEpoch:     idx.Epoch(),
		Stats:        s.Stats(),
	}
}
