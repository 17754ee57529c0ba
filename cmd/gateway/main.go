// Gateway is the front-door process of the reproduction: an HTTP/JSON
// service (internal/gateway) over the serving layer (internal/serve)
// over an e# detector — in-process sharded by default, or a
// coordinator over remote shardd processes with -remote. Both shard
// sets are wired by internal/topology; -remote takes its "a|b,c|d"
// syntax, '|' grouping the replicas of one shard, primary first.
//
// A single-process front door over four in-process shards:
//
//	gateway -addr :8080 -shards 4 -tokens "dev,reader:50:100:10000"
//
// The same front door as the coordinator of a 2-shardd deployment,
// with the admin plane on :8081:
//
//	shardd -addr :7101 -shard 0 -of 2 &
//	shardd -addr :7102 -shard 1 -of 2 &
//	gateway -addr :8080 -admin :8081 -remote localhost:7101,localhost:7102
//
// Clients authenticate with a bearer token and may name a latency
// budget; the budget rides the request context down the scatter-gather
// into per-shard RPC deadlines:
//
//	curl -s -X POST -H "Authorization: Bearer dev" -H "X-Budget-Ms: 250" \
//	     -d '{"query":"vintage cars"}' localhost:8080/v1/search
//
// The public port answers POST /v1/search and nothing else. With
// -admin, the process's state is on the admin plane: /metrics, /healthz,
// /stats (the serving layer's and the gateway's counters plus the slow
// queries), /watch (that body streamed as NDJSON) and /debug/pprof/.
//
// SIGINT/SIGTERM shut the process down gracefully: stop accepting,
// drain in-flight requests within -grace, exit 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/topology"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sigs, nil); err != nil {
		log.Fatal(err)
	}
}

// run builds the detector, serving layer and gateway, serves HTTP
// until a signal arrives on sigs, then drains and returns nil. When
// ready is non-nil it receives the bound address once listening (tests
// use it to drive the process loop).
func run(args []string, out io.Writer, sigs <-chan os.Signal, ready chan<- string) error {
	fs := flag.NewFlagSet("gateway", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:8080", "TCP address to serve HTTP on")
	admin := fs.String("admin", "", "optional host:port for the shared admin HTTP plane (/metrics, /healthz, /stats, /watch, /debug/pprof/)")
	tokens := fs.String("tokens", "dev", "client tokens, comma-separated token[:rate[:burst[:daily]]] (empty or missing numeric fields mean unlimited)")
	shards := fs.Int("shards", 2, "in-process shard count (ignored with -remote)")
	remote := fs.String("remote", "", "comma-separated shardd addresses ('|' groups replicas of one shard); empty serves in-process")
	cache := fs.Int("cache", 4096, "serving-layer result cache size (0 disables)")
	budgetMS := fs.Int("budget-ms", 2000, "default per-request latency budget")
	maxBudgetMS := fs.Int("max-budget-ms", 10000, "ceiling on client-named budgets")
	maxInflight := fs.Int("max-inflight", 0, "cold misses computing at once before load-shedding (0 = unlimited)")
	grace := fs.Duration("grace", 5*time.Second, "in-flight drain budget on SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tokenTable, err := gateway.ParseTokens(*tokens)
	if err != nil {
		return err
	}

	// The deterministic pipeline every process of a deployment builds;
	// with -remote, the per-connection handshake proves each shardd
	// serves the partition this coordinator expects over the same base.
	pipeline, err := core.BuildPipeline(core.TinyPipelineConfig())
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()

	var topo topology.Topology
	if *remote != "" {
		if topo, err = topology.Parse(*remote); err != nil {
			return err
		}
	} else {
		if *shards < 1 {
			return fmt.Errorf("gateway: -shards %d is not a valid shard count", *shards)
		}
		topo = topology.InProcess(*shards, 1)
	}
	// The gateway has no ingest route: in-process shards serve a corpus
	// nobody writes to, so there is nothing to seal or compact.
	cluster, err := topo.Build(pipeline.Corpus, ingest.Config{DisableCompactor: true}, reg)
	if err != nil {
		return err
	}
	defer cluster.Close()
	backend := core.NewShardedLiveDetectorOver(pipeline.Collection, cluster, pipeline.Cfg.Online)

	scfg := serve.DefaultConfig()
	scfg.CacheSize = *cache
	scfg.MaxInflightMisses = *maxInflight
	scfg.Obs = reg
	srv := serve.New(backend, scfg)

	gw, err := gateway.New(gateway.Config{
		Serve:         srv,
		Tokens:        tokenTable,
		DefaultBudget: time.Duration(*budgetMS) * time.Millisecond,
		MaxBudget:     time.Duration(*maxBudgetMS) * time.Millisecond,
		Obs:           reg,
	})
	if err != nil {
		return err
	}

	if *admin != "" {
		adm, err := obs.StartAdmin(*admin, obs.AdminConfig{
			Registry: reg,
			SlowLog:  srv.SlowLog(),
			// Unhealthy while the serving layer cannot observe a shard:
			// the view every request samples before touching the cache.
			Health: func() error {
				var down []int
				for i, e := range srv.Stats().EpochVector {
					if e == core.EpochUnknown {
						down = append(down, i)
					}
				}
				if len(down) > 0 {
					return fmt.Errorf("shards %v unreachable", down)
				}
				return nil
			},
			Stats: func() any {
				return map[string]any{"serve": srv.Stats(), "gateway": gw.Stats()}
			},
		})
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Fprintf(out, "gateway: admin plane on http://%s (/metrics /healthz /stats /watch /debug/pprof/)\n", adm.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: gw}
	fmt.Fprintf(out, "gateway: serving on http://%s (POST /v1/search) — %d tokens, default budget %dms\n",
		ln.Addr(), len(tokenTable), *budgetMS)
	if ready != nil {
		ready <- ln.Addr().String()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case sig := <-sigs:
		fmt.Fprintf(out, "gateway: %v — draining (grace %v)\n", sig, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		fmt.Fprintln(out, "gateway: drained, bye")
		return nil
	}
}
