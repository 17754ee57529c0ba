// Streaming: drive the live ingestion subsystem the way the paper's
// deployment would — tweets keep arriving while expert queries keep
// being answered. It builds the miniature pipeline, wraps the corpus
// in a streaming index behind a live detector and an epoch-aware
// caching server, replays a mixed read/write workload, and finally
// quiesces and checks that the live index agrees with a cold detector
// rebuilt over the same posts — a mismatch is a fatal error, so the run
// doubles as a smoke test of whichever topology its flags select
// (`make examples-smoke`).
//
// The detector is always the scatter-gather core.ShardedLiveDetector
// over a shard.Cluster; the single index is its one-shard case. With
// -shards N (N > 1) the stream is hash-partitioned by author across N
// independent indexes (internal/shard), and the serving cache
// invalidates as soon as any component of the per-shard epoch vector
// advances. With -remote host:port,... the shards live in other
// processes (cmd/shardd, one per partition, started with matching
// -shard/-of flags) and the scatter-gather runs over the wire protocol
// of internal/transport — searches, denominator fetches, routed
// ingest and the final quiesce all cross TCP.
//
// With -replicas R (R > 1) every shard becomes a replica.Set: one
// primary plus R-1 followers holding identical content, writes
// replicated synchronously, reads rotated across the replicas and
// failing over on error instead of degrading to partial results. In
// the -remote form, replicas of one shard are separated by '|' inside
// the shard's comma-separated slot — e.g.
//
//	shardd -addr :7101 -shard 0 -of 2 &
//	shardd -addr :7111 -shard 0 -of 2 &
//	shardd -addr :7102 -shard 1 -of 2 &
//	shardd -addr :7112 -shard 1 -of 2 &
//	go run ./examples/streaming -remote "localhost:7101|localhost:7111,localhost:7102|localhost:7112"
//
// wires a 2-shard × 2-replica deployment where the first address of
// each group is the shard's primary. The equivalence check is the
// same in every topology: the live index must agree with a cold
// rebuild bit for bit, which for -remote means the wire — and for
// replicated topologies the replication fan-out — is held to the bar.
//
// With -reshard the run goes one further: it starts on 2 in-process
// shards and live-migrates to 4 *while the mixed load is running* — a
// shard.Migration streams every moving author's post log across,
// catch-up rounds absorb the writes that land mid-drain, and the
// routing table swaps atomically once source and destination epochs
// agree. Queries never pause, writes pause only for the final residue
// pass, and the closing equivalence check runs against the 4-shard
// deployment — the migration itself is held to the bit-identical bar.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strings"

	"slices"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/transport"
)

// ingestedTweets appends every post the local shards of c accepted
// since their base corpora to dst — the input of the cold rebuild.
func ingestedTweets(dst []microblog.Tweet, c *shard.Cluster) []microblog.Tweet {
	for i := 0; i < c.NumShards(); i++ {
		dst = appendIngested(dst, c.Backend(i).(*shard.Local).Index())
	}
	return dst
}

// appendIngested appends the posts idx accepted since its base corpus.
func appendIngested(dst []microblog.Tweet, idx *ingest.Index) []microblog.Tweet {
	snap := idx.Snapshot()
	for gid := idx.Base().NumTweets(); gid < snap.NumTweets(); gid++ {
		dst = append(dst, *snap.Tweet(microblog.TweetID(gid)))
	}
	return dst
}

// fetchAdmin GETs one admin endpoint and returns its body, fatally
// ending the smoke run on any transport or status failure.
func fetchAdmin(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("admin smoke: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("admin smoke: read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("admin smoke: %s answered %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

func main() {
	shards := flag.Int("shards", 1, "number of author-partitioned shards (1 = single-node live index)")
	replicas := flag.Int("replicas", 1, "replicas per shard (primary + followers; 1 = unreplicated)")
	remote := flag.String("remote", "", "comma-separated shardd address groups, '|'-separated replicas within a group; scatter-gather over the wire (overrides -shards)")
	admin := flag.String("admin", "", "optional host:port for the coordinator's admin HTTP plane (/metrics, /healthz, /stats, /debug/pprof/); the run smoke-checks it live")
	reshard := flag.Bool("reshard", false, "live-migrate the in-process topology from 2 to 4 shards while the mixed load runs (incompatible with -remote and -replicas)")
	flag.Parse()

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

	online := pipeline.Cfg.Online
	online.MatchWorkers = 1 // request-level concurrency supplies the parallelism
	icfg := ingest.Config{SealThreshold: 128, CompactFanIn: 4}

	// One registry spans the whole coordinator: detector spans, serving
	// counters, client wire accounting and (for in-process topologies)
	// ingest accounting all land in the same /metrics namespace.
	var reg *obs.Registry
	if *admin != "" {
		reg = obs.NewRegistry()
		online.Obs = reg
		icfg.Obs = reg
	}

	// Wire the chosen topology. Every one is a shard.Cluster under the
	// same detector — one streaming index is the one-shard cluster — so
	// the serving and load-generation code below is topology-blind.
	var (
		cluster *shard.Cluster           // what the detector reads before any cutover
		sink    serve.Sink               // cluster, or the migration routing over it
		collect func() []microblog.Tweet // ingested tweets, for the cold rebuild
		// remotePrimaries, in -remote mode, are the per-group primary
		// clients — the smoke check below proves their epoch sampling
		// rides the push subscription (zero probe round trips after
		// warmup) instead of paying one RTT per serve-cache lookup.
		remotePrimaries []*transport.RemoteShard
		// mig, with -reshard, is the live 2→4 migration (onto reshardTo)
		// the mixed load runs against; it doubles as the write sink so
		// every post routes through the versioned table.
		mig       *shard.Migration
		reshardTo *shard.Cluster
	)
	if *reshard {
		if *remote != "" || *replicas > 1 {
			log.Fatal("-reshard drives the in-process sharded topology; drop -remote/-replicas")
		}
		*shards = 2
		cluster = shard.New(pipeline.Corpus, 2, icfg)
		dst := shard.New(pipeline.Corpus, 4, icfg)
		defer dst.Close()
		// After cutover the destination holds every ingested post — the
		// drained pre-cutover stream plus everything routed there since.
		collect = func() []microblog.Tweet {
			dst.Quiesce()
			return ingestedTweets(nil, dst)
		}
		reshardTo = dst
	} else if *remote != "" {
		groups := strings.Split(*remote, ",")
		n := len(groups)
		*shards = n
		// One counting pass over the base gives every partition's size
		// (no need to materialize the per-shard corpora the shardd
		// processes themselves hold).
		partSize := make([]int, n)
		for _, tw := range pipeline.Corpus.Tweets() {
			partSize[shard.ShardOf(tw.Author, n)]++
		}
		backends := make([]shard.Backend, n)
		primaries := make([]*transport.RemoteShard, n)
		maxReplicas := 1
		for i, group := range groups {
			addrs := strings.Split(group, "|")
			// The handshake proves each process serves the partition this
			// coordinator expects, over the identical deterministic base —
			// a mismatched shardd (or replica) would silently break the
			// equivalence check below, so fail here instead.
			ccfg := transport.DefaultClientConfig()
			ccfg.Obs = reg
			reps, err := transport.DialReplicas(addrs, i, n,
				len(pipeline.World.Users), partSize[i], ccfg)
			if err != nil {
				log.Fatal(err)
			}
			primaries[i] = reps[0].(*transport.RemoteShard)
			if len(reps) == 1 {
				backends[i] = reps[0]
			} else {
				rcfg := replica.DefaultConfig()
				rcfg.Obs = reg
				set, err := replica.NewSet(reps, rcfg)
				if err != nil {
					log.Fatal(err)
				}
				backends[i] = set
			}
			maxReplicas = max(maxReplicas, len(reps))
		}
		*replicas = maxReplicas
		remotePrimaries = primaries
		cluster = shard.NewCluster(pipeline.World, backends...)
		collect = func() []microblog.Tweet {
			if err := cluster.Quiesce(); err != nil {
				log.Fatal(err)
			}
			// Writes land on every replica; the primary is the durability
			// contract, so the cold rebuild pages its content back.
			var all []microblog.Tweet
			for _, c := range primaries {
				posts, err := c.DumpIngested()
				if err != nil {
					log.Fatal(err)
				}
				for _, p := range posts {
					all = append(all, microblog.MakeTweet(p))
				}
			}
			return all
		}
	} else if *replicas > 1 {
		// In-process replicated topology: every shard is a replica.Set of
		// R identical indexes over the shard's base partition — writes
		// fan out to all of them, reads rotate, and the logical write
		// epoch (not any replica's index epoch) identifies the view to
		// the serving cache.
		n := max(*shards, 1)
		*shards = n
		backends := make([]shard.Backend, n)
		primaries := make([]*ingest.Index, n)
		for i := 0; i < n; i++ {
			part := shard.Partition(pipeline.Corpus, i, n)
			members := make([]shard.Backend, *replicas)
			for j := range members {
				idx := ingest.New(part, icfg)
				if j == 0 {
					primaries[i] = idx
				}
				members[j] = shard.NewLocal(idx)
			}
			rcfg := replica.DefaultConfig()
			rcfg.Obs = reg
			set, err := replica.NewSet(members, rcfg)
			if err != nil {
				log.Fatal(err)
			}
			backends[i] = set
		}
		cluster = shard.NewCluster(pipeline.World, backends...)
		collect = func() []microblog.Tweet {
			if err := cluster.Quiesce(); err != nil {
				log.Fatal(err)
			}
			var all []microblog.Tweet
			for _, idx := range primaries {
				all = appendIngested(all, idx)
			}
			return all
		}
	} else {
		*shards = max(*shards, 1)
		cluster = shard.New(pipeline.Corpus, *shards, icfg)
		collect = func() []microblog.Tweet {
			cluster.Quiesce()
			return ingestedTweets(nil, cluster)
		}
	}
	defer cluster.Close()
	backend := core.NewShardedLiveDetectorOver(pipeline.Collection, cluster, online)
	sink = cluster
	if reshardTo != nil {
		m, err := shard.NewMigration(cluster, reshardTo, shard.MigrationConfig{
			Cutover: func(to *shard.Cluster) { backend.SwapCluster(to) },
			Obs:     reg,
		})
		if err != nil {
			log.Fatal(err)
		}
		backend.AttachMigration(m)
		mig, sink = m, m
	}
	scfg := serve.DefaultConfig()
	scfg.Obs = reg
	srv := serve.New(backend, scfg)
	var adminURL string
	if *admin != "" {
		adm, err := obs.StartAdmin(*admin, obs.AdminConfig{
			Registry: reg,
			SlowLog:  srv.SlowLog(),
			Stats:    func() any { return srv.Stats() },
		})
		if err != nil {
			log.Fatal(err)
		}
		defer adm.Close()
		adminURL = "http://" + adm.Addr().String()
		fmt.Printf("admin plane on %s (/metrics /healthz /stats /debug/pprof/)\n", adminURL)
	}

	fmt.Printf("live index over %d base tweets, %d domains, %d shard(s) x %d replica(s); workload of %d distinct queries\n\n",
		pipeline.Corpus.NumTweets(), pipeline.Collection.NumDomains(), *shards, *replicas, len(pool))

	const spot = "49ers"
	before := srv.Search(spot)
	fmt.Printf("epoch %-4d  %q -> %d experts (pre-ingest)\n", backend.Cluster().Epoch(), spot, len(before))

	// Warm the push subscriptions explicitly, then snapshot the epoch
	// round-trip counters: everything the mixed load does from here on
	// must learn epochs from pushed deltas alone.
	var epochRTTsWarm int64
	for _, c := range remotePrimaries {
		if _, err := c.Epoch(); err != nil {
			log.Fatal(err)
		}
	}
	for _, c := range remotePrimaries {
		epochRTTsWarm += c.EpochRTTs()
	}

	// With -reshard: seed the 2-shard deployment with live posts so the
	// drain has author logs to move, then run the migration concurrently
	// with the mixed load below — queries and writes keep flowing while
	// authors stream across.
	var migDone chan error
	if mig != nil {
		stream := microblog.NewPostStream(pipeline.World, microblog.DefaultStreamConfig(41))
		for i := 0; i < 500; i++ {
			if err := sink.IngestBatch([]microblog.Post{stream.Next()}); err != nil {
				log.Fatal(err)
			}
		}
		migDone = make(chan error, 1)
		go func() { migDone <- mig.Run() }()
	}

	workers := runtime.GOMAXPROCS(0)
	res := serve.RunMixedLoad(srv, sink, serve.MixedLoadConfig{
		Queries:       pool,
		Searches:      4 * len(pool),
		SearchWorkers: workers,
		Ingests:       1500,
		IngestWorkers: 2,
		BaselineEvery: 5,
		Seed:          23,
	})
	fmt.Printf("\nmixed load: %d searches (%.0f qps) alongside %d ingests (%.0f posts/s) in %v\n",
		res.Searches, res.SearchQPS, res.Ingested, res.IngestPerSec, res.Duration.Round(0))
	fmt.Printf("epoch digest %d -> %d\n", res.StartEpoch, res.EndEpoch)
	fmt.Printf("per-shard epoch vector: %v\n", srv.Stats().EpochVector)
	fmt.Printf("cache: hits=%d misses=%d coalesced=%d invalidations=%d\n",
		res.Stats.CacheHits, res.Stats.CacheMisses, res.Stats.Coalesced, res.Stats.Invalidations)
	if res.Stats.PartialResults > 0 || res.Stats.Uncacheable > 0 {
		fmt.Printf("degraded: partial=%d shard-errors=%d uncacheable=%d\n",
			res.Stats.PartialResults, res.Stats.ShardErrors, res.Stats.Uncacheable)
	}

	if mig != nil {
		if err := <-migDone; err != nil {
			log.Fatalf("reshard: %v", err)
		}
		st := mig.Stats()
		fmt.Printf("\nreshard: %v — routing table v%d now %d shards; %d authors moved, %d posts (%d bytes) streamed, %d catch-up rounds, %d reads in the dual-read window\n",
			st.State, st.TableVersion, st.ToShards, st.AuthorsMoving,
			st.PostsStreamed, st.BytesStreamed, st.CatchUpRounds, st.WindowHits)
	}

	after := srv.Search(spot)
	fmt.Printf("\nepoch %-4d  %q -> %d experts (post-ingest)\n", backend.Cluster().Epoch(), spot, len(after))

	if remotePrimaries != nil {
		var rtts int64
		for _, c := range remotePrimaries {
			rtts += c.EpochRTTs()
		}
		fmt.Printf("push path: %d epoch-probe round trips after warmup (want 0)\n", rtts-epochRTTsWarm)
		if rtts != epochRTTsWarm {
			log.Fatalf("epoch sampling fell off the push path: %d probe round trips during the mixed load",
				rtts-epochRTTsWarm)
		}
	}

	// Admin smoke: with -admin, the plane must answer live — /metrics
	// carrying the serving rows the load just drove (and, over the wire,
	// the client RPC rows), /stats as JSON, /healthz green.
	if adminURL != "" {
		metrics := fetchAdmin(adminURL + "/metrics")
		for _, want := range []string{"serve_queries", "serve_request_ns_count"} {
			if !strings.Contains(metrics, want) {
				log.Fatalf("admin smoke: /metrics is missing %q:\n%s", want, metrics)
			}
		}
		if remotePrimaries != nil && !strings.Contains(metrics, "rpc_client_search_stats_requests") {
			log.Fatalf("admin smoke: /metrics is missing the client RPC rows:\n%s", metrics)
		}
		stats := fetchAdmin(adminURL + "/stats")
		if !strings.Contains(stats, "\"metrics\"") || !strings.Contains(stats, "\"stats\"") {
			log.Fatalf("admin smoke: /stats is missing sections:\n%s", stats)
		}
		if health := fetchAdmin(adminURL + "/healthz"); !strings.HasPrefix(health, "ok") {
			log.Fatalf("admin smoke: /healthz answered %q", health)
		}
		fmt.Printf("admin smoke: /metrics (%d rows), /stats and /healthz answered live\n",
			strings.Count(metrics, "\n"))
	}

	// Quiesce and verify: the live index — sharded or not — must agree
	// with a cold detector over base + everything that was ingested.
	all := append([]microblog.Tweet(nil), pipeline.Corpus.Tweets()...)
	all = append(all, collect()...)
	cold := core.NewDetector(pipeline.Collection, microblog.FromTweets(pipeline.World, all), online)
	mismatches := 0
	for _, q := range pool {
		liveRes, _ := backend.Search(q)
		coldRes, _ := cold.Search(q)
		if !slices.Equal(liveRes, coldRes) {
			mismatches++
		}
	}
	fmt.Printf("quiesced equivalence over %d queries: %d mismatches vs cold rebuild\n",
		len(pool), mismatches)
	if mismatches != 0 {
		log.Fatalf("the quiesced index disagrees with a cold rebuild on %d of %d queries", mismatches, len(pool))
	}
	if len(after) > 0 {
		fmt.Printf("top %q expert: @%s\n", spot,
			pipeline.World.User(after[0].User).ScreenName)
	}
}
