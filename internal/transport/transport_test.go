package transport_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expertise"
	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/world"
)

var (
	pipeOnce sync.Once
	pipe     *core.Pipeline
	pipeSets []eval.QuerySet
	pipeErr  error
)

func testPipeline(t testing.TB) (*core.Pipeline, []eval.QuerySet) {
	t.Helper()
	pipeOnce.Do(func() {
		pipe, pipeErr = core.BuildPipeline(core.TinyPipelineConfig())
		if pipeErr == nil {
			pipeSets = eval.BuildQuerySets(pipe.World, pipe.Log,
				eval.SetSizes{PerCategory: 25, Top: 60})
		}
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe, pipeSets
}

func streamPosts(p *core.Pipeline, seed uint64, n int) []microblog.Post {
	s := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(seed))
	posts := make([]microblog.Post, n)
	for i := range posts {
		posts[i] = s.Next()
	}
	return posts
}

func expertsIdentical(t *testing.T, label, query string, got, want []expertise.Expert) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %q: %d results, reference has %d", label, query, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s %q rank %d:\n  got  %+v\n  want %+v", label, query, i, got[i], want[i])
		}
	}
}

// testClientConfig keeps test round trips snappy but tolerant of a
// loaded CI container.
func testClientConfig() transport.ClientConfig {
	return transport.ClientConfig{Timeout: 10 * time.Second}
}

// startShardServers partitions the pipeline's base corpus across n
// loopback ShardServers and returns handshaken RemoteShard clients,
// one per shard, with cleanup registered on t.
func startShardServers(t testing.TB, p *core.Pipeline, n int, icfg ingest.Config) []*transport.RemoteShard {
	t.Helper()
	clients := make([]*transport.RemoteShard, n)
	for i := 0; i < n; i++ {
		part := shard.Partition(p.Corpus, i, n)
		idx := ingest.New(part, icfg)
		srv, err := transport.Listen("127.0.0.1:0", idx, transport.DefaultServerConfig(i, n))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Close()
			idx.Close()
		})
		c := transport.NewRemoteShard(srv.Addr().String(), testClientConfig())
		t.Cleanup(func() { c.Close() })
		if err := c.Handshake(i, n, len(p.World.Users), part.NumTweets()); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	return clients
}

// TestConcurrentRemoteIngestSearch is the -race hammer over the wire:
// concurrent routed ingesters stream posts through the cluster while
// scatter-gather searchers query it, all over loopback TCP with every
// shard's compactor running. Afterwards the quiesced cluster must match
// a cold detector rebuilt from content paged back over the wire.
func TestConcurrentRemoteIngestSearch(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	const n = 2
	clients := startShardServers(t, p, n, ingest.Config{SealThreshold: 16, CompactFanIn: 3})
	backends := make([]shard.Backend, n)
	for i, c := range clients {
		backends[i] = c
	}
	cluster := shard.NewCluster(p.World, backends...)
	remote := core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)
	queries := []string{"49ers", "diabetes", "nfl", "dow futures", "coffee", "zzz-none"}
	maxResults := p.Cfg.Online.Expertise.MaxResults

	const ingesters, perIngester = 2, 100
	const searchers, perSearcher = 4, 50
	errs := make(chan error, ingesters+searchers)
	var wg sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(uint64(400+g)))
			for i := 0; i < perIngester; i++ {
				if err := cluster.IngestBatch([]microblog.Post{stream.Next()}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSearcher; i++ {
				experts, _ := remote.Search(queries[(g+i)%len(queries)])
				if maxResults > 0 && len(experts) > maxResults {
					errs <- errInvariant("result cap exceeded")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if pq, se := remote.PartialStats(); pq != 0 || se != 0 {
		t.Fatalf("healthy cluster reported partial queries %d, shard errors %d under load", pq, se)
	}
	if err := cluster.Quiesce(); err != nil {
		t.Fatal(err)
	}

	// Cold rebuild from the shards' own final content, paged back over
	// the wire.
	all := append([]microblog.Tweet(nil), p.Corpus.Tweets()...)
	totalIngested := 0
	for _, c := range clients {
		posts, err := c.DumpIngested()
		if err != nil {
			t.Fatal(err)
		}
		totalIngested += len(posts)
		for _, post := range posts {
			all = append(all, microblog.MakeTweet(post))
		}
	}
	if want := ingesters * perIngester; totalIngested != want {
		t.Fatalf("paged %d ingested posts back, want %d", totalIngested, want)
	}
	cold := core.NewDetector(p.Collection, microblog.FromTweets(p.World, all), p.Cfg.Online)
	for _, q := range queries {
		got, _ := remote.Search(q)
		want, _ := cold.Search(q)
		expertsIdentical(t, "post-hammer", q, got, want)
	}
}

// TestHandshakeRejectsMisdeployment pins the wiring-time checks: a
// client handshaken against the wrong shard index, partition count or
// base slice must fail before any query does.
func TestHandshakeRejectsMisdeployment(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	clients := startShardServers(t, p, 2, ingest.DefaultConfig())
	part0 := shard.Partition(p.Corpus, 0, 2)

	if err := clients[0].Handshake(0, 2, len(p.World.Users), part0.NumTweets()); err != nil {
		t.Fatalf("correct handshake failed: %v", err)
	}
	if err := clients[0].Handshake(1, 2, len(p.World.Users), part0.NumTweets()); err == nil {
		t.Fatal("wrong shard index accepted")
	}
	if err := clients[0].Handshake(0, 4, len(p.World.Users), part0.NumTweets()); err == nil {
		t.Fatal("wrong partition count accepted")
	}
	if err := clients[0].Handshake(0, 2, len(p.World.Users)+1, part0.NumTweets()); err == nil {
		t.Fatal("wrong world size accepted")
	}
	if err := clients[0].Handshake(0, 2, len(p.World.Users), part0.NumTweets()+1); err == nil {
		t.Fatal("wrong base slice accepted")
	}
}

// TestConnectionReuse pins the pooling behaviour the latency numbers
// rest on: a sequence of queries on one client reuses one connection
// instead of dialing per request.
func TestConnectionReuse(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	// Shard 0 of two, so each search pins the snapshot its Stats reads.
	clients := startShardServers(t, p, 2, ingest.DefaultConfig())
	c := clients[0]
	// One warmup round first: the first Epoch dedicates a connection to
	// the push subscription, so steady state is two live connections
	// (subscription + query). After the warmup, dials must stay flat.
	if _, err := c.Epoch(); err != nil {
		t.Fatal(err)
	}
	if _, _, v, err := c.Search(context.Background(), []string{"49ers"}, false, nil); err != nil {
		t.Fatal(err)
	} else {
		v.Release()
	}
	dialsAfterHandshake := c.Dials()
	for i := 0; i < 10; i++ {
		if _, err := c.Epoch(); err != nil {
			t.Fatal(err)
		}
		rows, _, v, err := c.Search(context.Background(), []string{"49ers"}, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) > 0 {
			users := make([]world.UserID, 0, len(rows))
			for _, rc := range rows {
				users = append(users, rc.User)
			}
			stats, err := v.Stats(context.Background(), users, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(stats) != len(users) {
				t.Fatalf("stats returned %d triples for %d users", len(stats), len(users))
			}
		}
		v.Release()
	}
	if d := c.Dials(); d != dialsAfterHandshake {
		t.Fatalf("10 query rounds dialed %d extra connections, want 0", d-dialsAfterHandshake)
	}
}

type errInvariant string

func (e errInvariant) Error() string { return string(e) }
