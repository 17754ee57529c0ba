// Serving: drive the online stage the way production traffic would.
// It builds the miniature pipeline, wraps it in a serve.Server (the
// frozen corpus served as an index nobody writes to, LRU result cache)
// and replays a mixed query workload
// through the load generator — first cold and sequential, then warm and
// concurrent — printing the achieved QPS and cache hit rates.
package main

import (
	"fmt"
	"log"
	"runtime"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/ingest"
	"repro/internal/serve"
)

func main() {
	pipeline, err := core.BuildPipeline(core.TinyPipelineConfig())
	if err != nil {
		log.Fatal(err)
	}
	sets := eval.BuildQuerySets(pipeline.World, pipeline.Log,
		eval.SetSizes{PerCategory: 25, Top: 60})
	var pool []string
	for _, set := range sets {
		pool = append(pool, set.Queries...)
	}
	fmt.Printf("serving over %d domains, %d tweets; workload of %d distinct queries\n\n",
		pipeline.Collection.NumDomains(), pipeline.Corpus.NumTweets(), len(pool))

	// Request-level concurrency supplies the parallelism, so the
	// server's detector matches sequentially within each query.
	online := pipeline.Cfg.Online
	online.MatchWorkers = 1
	frozen := ingest.New(pipeline.Corpus, ingest.Config{DisableCompactor: true})
	detector := core.NewLiveDetector(pipeline.Collection, frozen, online)
	srv := serve.New(detector, serve.DefaultConfig())
	workers := runtime.GOMAXPROCS(0)
	for _, run := range []struct {
		name string
		cfg  serve.LoadConfig
	}{
		{"cold sequential", serve.LoadConfig{Queries: pool, Total: len(pool), Workers: 1, BaselineEvery: 5}},
		{"warm sequential", serve.LoadConfig{Queries: pool, Total: 2 * len(pool), Workers: 1, BaselineEvery: 5}},
		{fmt.Sprintf("warm x%d workers", workers), serve.LoadConfig{Queries: pool, Total: 2 * len(pool), Workers: workers, BaselineEvery: 5}},
	} {
		res := serve.RunLoad(srv, run.cfg)
		fmt.Printf("%-18s %6d queries in %8v  %9.0f qps  answered=%d  cache hits/misses=%d/%d\n",
			run.name, res.Queries, res.Duration.Round(0), res.QPS,
			res.Answered, res.Stats.CacheHits, res.Stats.CacheMisses)
	}

	st := srv.Stats()
	fmt.Printf("\ncache holds %d entries after the runs\n", st.CacheEntries)
	experts := srv.Search("49ers")
	if len(experts) == 0 {
		fmt.Printf("spot check %q: no experts found\n", "49ers")
		return
	}
	fmt.Printf("spot check %q: %d experts, top hit @%s\n",
		"49ers", len(experts), pipeline.World.User(experts[0].User).ScreenName)
}
