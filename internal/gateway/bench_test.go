package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/shard"
)

// benchGateway builds the full warm stack once: 2-shard quiesced
// deployment under serve under the gateway, with the benchmark query
// already cached so the measured path is auth → budget → cache hit →
// JSON.
func benchGateway(b *testing.B) (*serve.Server, *httptest.Server, string) {
	b.Helper()
	p, sets := testPipeline(b)
	posts := streamPosts(p, 83, 400)
	cluster := shard.New(p.Corpus, 2, ingest.Config{SealThreshold: 32, CompactFanIn: 3})
	b.Cleanup(func() { cluster.Close() })
	cluster.IngestBatch(posts)
	cluster.Quiesce()
	live := core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)

	srv := serve.New(live, serve.DefaultConfig())
	g, err := New(Config{
		Serve:         srv,
		Tokens:        map[string]TokenConfig{"bench": {}},
		DefaultBudget: 30 * time.Second,
		MaxBudget:     30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(g)
	b.Cleanup(hs.Close)

	query := sets[0].Queries[0]
	body, _ := json.Marshal(searchRequest{Query: query})
	resp, err := http.Post(hs.URL+"/v1/search", "application/json", strings.NewReader(string(body)))
	_ = resp // warm request is unauthenticated on purpose: cheap 401
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	srv.Search(query) // warm the cache slot
	return srv, hs, query
}

func gatewayRoundTrip(b *testing.B, client *http.Client, url, body string) {
	b.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer bench")
	resp, err := client.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// BenchmarkGatewayQPSWarm measures sequential warm-hit round trips over
// a real TCP loopback connection: auth, budget parse, serve cache hit,
// JSON encode, HTTP framing.
func BenchmarkGatewayQPSWarm(b *testing.B) {
	_, hs, query := benchGateway(b)
	body, _ := json.Marshal(searchRequest{Query: query})
	url := hs.URL + "/v1/search"
	gatewayRoundTrip(b, hs.Client(), url, string(body)) // prime the conn
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gatewayRoundTrip(b, hs.Client(), url, string(body))
	}
}

// BenchmarkGatewayQPSParallel is the same round trip under RunParallel:
// the headline concurrent-throughput number for BENCHMARKS.md.
func BenchmarkGatewayQPSParallel(b *testing.B) {
	_, hs, query := benchGateway(b)
	body, _ := json.Marshal(searchRequest{Query: query})
	url := hs.URL + "/v1/search"
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		defer client.CloseIdleConnections()
		for pb.Next() {
			gatewayRoundTrip(b, client, url, string(body))
		}
	})
}

// BenchmarkGatewayOverhead isolates what the front door costs on top of
// the serving layer it wraps: the serve sub-benchmark answers the same
// warm query in-process, the http sub-benchmark answers it through the
// full gateway; the delta is the HTTP+JSON+auth tax per request.
func BenchmarkGatewayOverhead(b *testing.B) {
	srv, hs, query := benchGateway(b)
	b.Run("serve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if srv.Search(query) == nil {
				b.Fatal("warm query lost its experts")
			}
		}
	})
	b.Run("http", func(b *testing.B) {
		body, _ := json.Marshal(searchRequest{Query: query})
		url := hs.URL + "/v1/search"
		client := hs.Client()
		gatewayRoundTrip(b, client, url, string(body))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gatewayRoundTrip(b, client, url, string(body))
		}
	})
}
