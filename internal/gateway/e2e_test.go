package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expertise"
	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/transport"
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

// realGateway wires an actual e# backend (any serve.Backend over the
// pipeline) through serve into a gateway httptest server with an
// unlimited reader token and an admin token.
func realGateway(t testing.TB, backend serve.Backend, mut func(*serve.Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	scfg := serve.DefaultConfig()
	if mut != nil {
		mut(&scfg)
	}
	g, err := New(Config{
		Serve: serve.New(backend, scfg),
		Tokens: map[string]TokenConfig{
			"reader": {},
			"ops":    {Admin: true},
		},
		// E2E queries over cold tiny-pipeline shards stay well under a
		// second; the wide default keeps a loaded CI container from
		// tripping budgets in the equivalence sweep.
		DefaultBudget: 30 * time.Second,
		MaxBudget:     30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(g)
	t.Cleanup(hs.Close)
	t.Cleanup(g.Close)
	return g, hs
}

// jsonIdentical asserts the HTTP-delivered experts are byte-identical
// to the reference ranking after both pass through JSON — the
// equivalence spine extended to the front door. float64 survives a
// JSON round trip exactly, so any divergence is a real ranking or
// score difference, not encoding noise.
func jsonIdentical(t *testing.T, label, query string, got, want []expertise.Expert) {
	t.Helper()
	if want == nil {
		// The gateway contract is "experts is never null"; an empty
		// reference ranking is the same result.
		want = []expertise.Expert{}
	}
	a, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s %q diverged over HTTP:\n  got  %s\n  want %s", label, query, a, b)
	}
}

// TestGatewayRemoteStalledShard504 is the fault half of the acceptance
// bar, wire edition: with one shard served over a real loopback
// connection that suddenly stalls, a budgeted request must come back
// 504 within roughly its budget (not the transport's much larger
// timeout), warm cache hits must keep answering 200 throughout, no
// goroutine may leak, and the deployment must heal when the stall
// lifts.
func TestGatewayRemoteStalledShard504(t *testing.T) {
	p, sets := testPipeline(t)
	posts := streamPosts(p, 89, 200)
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}

	const n = 2
	dialer := fault.NewDialer()
	backends := make([]shard.Backend, n)
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
		// Real wire, fault-injectable: reads on every live connection
		// can be stalled at will. Push subscription stays ON so epoch
		// reads stay local and warm hits never touch the stalled wire.
		ccfg := transport.ClientConfig{Timeout: 10 * time.Second, Dial: dialer.Dial}
		c := transport.NewRemoteShard(srv.Addr().String(), ccfg)
		t.Cleanup(func() { c.Close() })
		if err := c.Handshake(i, n, len(p.World.Users), part.NumTweets()); err != nil {
			t.Fatal(err)
		}
		backends[i] = c
	}
	cluster := shard.NewCluster(p.World, backends...)
	defer cluster.Close()
	if err := cluster.IngestBatch(posts); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Quiesce(); err != nil {
		t.Fatal(err)
	}
	live := core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)

	// Pick two evaluation queries that provably produce experts: a
	// query matching no collection domain short-circuits before the
	// scatter and would dodge the stalled wire entirely.
	var wireQueries []string
	for _, set := range sets {
		for _, q := range set.Queries {
			if experts, _ := live.Search(q); len(experts) > 0 {
				wireQueries = append(wireQueries, q)
			}
			if len(wireQueries) == 2 {
				break
			}
		}
		if len(wireQueries) == 2 {
			break
		}
	}
	if len(wireQueries) < 2 {
		t.Fatal("no evaluation queries produce experts")
	}
	warmQ, coldQ := wireQueries[0], wireQueries[1]
	g, hs := realGateway(t, live, nil)

	// Warm one query end to end, then measure the goroutine baseline.
	warmBytes, _ := json.Marshal(searchRequest{Query: warmQ})
	warmQuery := string(warmBytes)
	warm := post(t, hs.URL+"/v1/search", "reader", warmQuery, nil)
	wantStatus(t, warm, http.StatusOK)
	var warmBody searchResponse
	if err := json.NewDecoder(warm.Body).Decode(&warmBody); err != nil {
		t.Fatal(err)
	}
	before := countGoroutines()

	// Stall every wire read far beyond the request budget.
	dialer.StallAll(5 * time.Second)

	start := time.Now()
	coldBytes, _ := json.Marshal(searchRequest{Query: coldQ})
	resp := post(t, hs.URL+"/v1/search", "reader", string(coldBytes),
		map[string]string{"X-Budget-Ms": "200"})
	elapsed := time.Since(start)
	wantStatus(t, resp, http.StatusGatewayTimeout)
	// The 504 must come from the budget, not the 10s transport timeout
	// or the 5s stall: within ~2× the budget plus CI slack.
	if elapsed > 600*time.Millisecond {
		t.Fatalf("stalled shard 504 took %v, want ≈200ms budget", elapsed)
	}

	// Warm cache hits keep answering during the stall, and fast.
	during := post(t, hs.URL+"/v1/search", "reader", warmQuery, nil)
	wantStatus(t, during, http.StatusOK)
	var duringBody searchResponse
	if err := json.NewDecoder(during.Body).Decode(&duringBody); err != nil {
		t.Fatal(err)
	}
	jsonIdentical(t, "warm-during-stall", warmQ, duringBody.Experts, warmBody.Experts)

	// Every goroutine the failed scatter started must wind down.
	waitGoroutinesSettle(t, before)
	if st := g.Stats(); st.Timeout != 1 {
		t.Fatalf("Timeout = %d, want 1: %+v", st.Timeout, st)
	}

	// Lift the stall: the next cold query redials and succeeds.
	dialer.StallAll(0)
	healed := post(t, hs.URL+"/v1/search", "reader", string(coldBytes), nil)
	wantStatus(t, healed, http.StatusOK)
}

// TestPartialAnswerLabelled pins how a degraded answer crosses the
// front door: with shard 1 of two killed, /v1/search answers 200 with
// exactly what shard 0 alone ranks and a body that adds
// "partial":true and the missing shard's index, for e# and baseline
// alike; once the shard heals, the same requests get whole answers,
// byte-identical to the unlabelled encoding — nothing partial was
// cached.
func TestPartialAnswerLabelled(t *testing.T) {
	p, sets := testPipeline(t)
	icfg := ingest.Config{DisableCompactor: true}
	survivor := shard.NewLocal(ingest.New(shard.Partition(p.Corpus, 0, 2), icfg))
	dying := fault.Wrap(shard.NewLocal(ingest.New(shard.Partition(p.Corpus, 1, 2), icfg)))
	cluster := shard.NewCluster(p.World, survivor, dying)
	t.Cleanup(func() { cluster.Close() })
	det := core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)
	alone := core.NewShardedLiveDetectorOver(p.Collection, shard.NewCluster(p.World, survivor), p.Cfg.Online)
	_, hs := realGateway(t, det, nil)

	q := sets[0].Queries[0]
	body := `{"query":` + strconv.Quote(q) + `}`
	search := func(baseline bool) []byte {
		t.Helper()
		url := hs.URL + "/v1/search"
		if baseline {
			url += "?baseline=1"
		}
		resp := post(t, url, "reader", body, nil)
		wantStatus(t, resp, http.StatusOK)
		got, _ := io.ReadAll(resp.Body)
		return got
	}
	dying.Kill()
	for _, baseline := range []bool{false, true} {
		want := alone.SearchBaseline(q)
		if !baseline {
			want, _ = alone.Search(q)
		}
		whole := referenceBody(t, q, baseline, want)
		labelled := append(whole[:len(whole)-2:len(whole)-2], `,"partial":true,"missing_shards":[1]}`+"\n"...)
		if got := search(baseline); !bytes.Equal(got, labelled) {
			t.Fatalf("baseline=%v with shard 1 dead:\n  got  %s\n  want %s", baseline, got, labelled)
		}
	}
	dying.Heal()
	for _, baseline := range []bool{false, true} {
		want := det.SearchBaseline(q)
		if !baseline {
			want, _ = det.Search(q)
		}
		if got, whole := search(baseline), referenceBody(t, q, baseline, want); !bytes.Equal(got, whole) {
			t.Fatalf("baseline=%v after heal:\n  got  %s\n  want %s", baseline, got, whole)
		}
	}
}
