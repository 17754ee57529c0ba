// Gateway: drive the HTTP front door end to end inside one process.
// It builds the miniature pipeline, shards it behind a
// serve.Server-wrapped scatter-gather detector, mounts the
// internal/gateway HTTP/JSON service on a loopback listener, and then
// plays two clients against it over real HTTP: a reader issuing
// budgeted searches and a throttled client tripping the token bucket.
// Every refusal rung of the front door — 401, 429, 400 — is
// demonstrated with live requests, an exchange shows a warm cache hit
// answering under a budget that would be impossible cold, and an
// operator reads the combined accounting from the admin plane
// (obs.StartAdmin), the one place internal state is served.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expertise"
	"repro/internal/gateway"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/topology"
)

func request(method, url, token, body string, hdr map[string]string) (int, string) {
	req, err := http.NewRequest(method, url, bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func main() {
	pipeline, err := core.BuildPipeline(core.TinyPipelineConfig())
	if err != nil {
		log.Fatal(err)
	}
	sets := eval.BuildQuerySets(pipeline.World, pipeline.Log,
		eval.SetSizes{PerCategory: 25, Top: 60})

	cluster, err := topology.InProcess(2, 1).Build(pipeline.World, nil, pipeline.Corpus.Tweets(), ingest.Config{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	detector := core.NewShardedLiveDetectorOver(pipeline.Collection, cluster, pipeline.Cfg.Online)
	reg := obs.NewRegistry()
	scfg := serve.DefaultConfig()
	scfg.Obs = reg
	srv := serve.New(detector, scfg)

	tokens, err := gateway.ParseTokens("reader,throttled:0.1:2")
	if err != nil {
		log.Fatal(err)
	}
	gw, err := gateway.New(gateway.Config{Serve: srv, Tokens: tokens, Obs: reg})
	if err != nil {
		log.Fatal(err)
	}
	adm, err := obs.StartAdmin("127.0.0.1:0", obs.AdminConfig{
		Registry: reg,
		SlowLog:  srv.SlowLog(),
		Stats:    func() any { return map[string]any{"serve": srv.Stats(), "gateway": gw.Stats()} },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer adm.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: gw}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("front door on %s — 2 shards, %d domains, %d tweets\n\n",
		base, pipeline.Collection.NumDomains(), pipeline.Corpus.NumTweets())

	// A reader works through real evaluation queries with a budget.
	query := sets[0].Queries[0]
	body, _ := json.Marshal(map[string]string{"query": query})
	status, resp := request(http.MethodPost, base+"/v1/search", "reader", string(body),
		map[string]string{"X-Budget-Ms": "2000"})
	var decoded struct {
		Experts []expertise.Expert `json:"experts"`
	}
	if err := json.Unmarshal([]byte(resp), &decoded); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reader  POST /v1/search %-28q → %d, %d experts\n", query, status, len(decoded.Experts))
	if len(decoded.Experts) > 0 {
		e := decoded.Experts[0]
		fmt.Printf("        top expert: user %d, score %.4f\n", e.User, e.Score)
	}

	// The same query again: a cache hit, fast enough for a budget that
	// could never be met cold.
	t0 := time.Now()
	status, _ = request(http.MethodPost, base+"/v1/search", "reader", string(body),
		map[string]string{"X-Budget-Ms": "50"})
	fmt.Printf("reader  same query, 50ms budget        → %d in %v (warm hit)\n\n", status, time.Since(t0).Round(time.Microsecond))

	// Every rung of the refusal ladder, demonstrated live.
	status, _ = request(http.MethodPost, base+"/v1/search", "", string(body), nil)
	fmt.Printf("anon    no token                       → %d\n", status)
	status, _ = request(http.MethodPost, base+"/v1/search", "reader", `{"query":"   "}`, nil)
	fmt.Printf("reader  blank query                    → %d\n", status)
	var limited int
	for i := 0; i < 5; i++ {
		status, _ = request(http.MethodPost, base+"/v1/search", "throttled", string(body), nil)
		if status == http.StatusTooManyRequests {
			limited++
		}
	}
	fmt.Printf("throttled 5 rapid queries              → %d rate-limited (burst 2, 0.1/s)\n\n", limited)

	// The operator reads the combined accounting of both layers from
	// the admin plane; the public port serves searches only.
	status, _ = request(http.MethodGet, base+"/stats", "reader", "", nil)
	fmt.Printf("reader  GET /stats on the public port  → %d\n", status)
	status, resp = request(http.MethodGet, "http://"+adm.Addr().String()+"/stats", "", "", nil)
	var snap struct {
		Stats struct {
			Serve   serve.Stats   `json:"serve"`
			Gateway gateway.Stats `json:"gateway"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(resp), &snap); err != nil {
		log.Fatal(err)
	}
	gs, ss := snap.Stats.Gateway, snap.Stats.Serve
	fmt.Printf("ops     GET /stats on the admin plane  → %d\n", status)
	fmt.Printf("        gateway: %d requests = %d ok + %d unauthorized + %d rate-limited + %d bad\n",
		gs.Requests, gs.OK, gs.Unauthorized, gs.RateLimited, gs.BadRequest)
	fmt.Printf("        serve:   %d queries, %d hits, %d misses\n",
		ss.Queries, ss.CacheHits, ss.CacheMisses)
}
