// Shardd serves one shard of the author-partitioned expert index over
// the wire protocol of internal/transport — the per-process half of
// cross-process sharding, and the only process of a deployment that
// holds posts. Each shardd builds the deterministic pipeline (so every
// process, and the coordinator, agrees on the world and the base corpus
// bit for bit), keeps exactly its partition — shard.Partition(base, i,
// n), the same slice the in-process cluster would hand shard i — and
// serves the composite search, denominator top-ups, routed ingest,
// epoch pushes, quiesce and log paging on one TCP address.
//
// The coordinator is cmd/gateway. A 2-shard deployment is two shardd
// processes and the front door:
//
//	shardd -addr :7101 -shard 0 -of 2 &
//	shardd -addr :7102 -shard 1 -of 2 &
//	gateway -addr :8080 -remote localhost:7101,localhost:7102
//
// Replication (internal/replica) needs no shardd-side support: a
// replica is another shardd started with the same -shard/-of
// coordinates, and the coordinator groups replicas with '|' inside a
// shard's slot, the first address of each group being the primary:
//
//	shardd -addr :7101 -shard 0 -of 2 &
//	shardd -addr :7111 -shard 0 -of 2 &   # replica of shard 0
//	shardd -addr :7102 -shard 1 -of 2 &
//	shardd -addr :7112 -shard 1 -of 2 &   # replica of shard 1
//	gateway -remote "localhost:7101|localhost:7111,localhost:7102|localhost:7112"
//
// The gateway only reads. Writes reach a shardd over the same wire —
// OpIngest, from any transport.RemoteShard — and the root package's
// topology matrix writes to loopback transport.ShardServers (what this
// process serves) while it searches them, then holds the deployment to
// the usual bar: quiesced,
// the ranking over the wire must be bit-identical to a cold
// single-process rebuild.
//
// -seal tunes the streaming index (compaction merges compactFanIn
// segments at a time); -data-dir turns on the disk tier (sealed
// segments of at least -spill posts are written to mmap-backed files
// under <data-dir>/shard-<i>, which is emptied at start — there is no
// restart path yet; without it every sealed segment stays in memory); -admin serves
// /metrics, /healthz, /stats and /debug/pprof/ on a second address.
// SIGINT/SIGTERM stop accepting, let in-flight conversations and push
// subscribers drain within -grace, and exit 0.
//
// Every client restates its handshake-pinned -shard/-of coordinates on
// each connection's OpInfo exchange, and a shardd whose topology does
// not match refuses the connection — after a reshard (shard.Migration
// pages each old shard's log over OpTweets, the server filtering by
// destination ownership so only moving authors' posts cross the wire),
// a coordinator still wired for the old N fails at connect instead of
// silently reading the wrong partition.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/transport"
)

// compactFanIn is how many adjacent sealed segments of one size tier a
// compaction merges. It is a constant: no deployment sets another.
const compactFanIn = 4

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sigs, nil); err != nil {
		log.Fatal(err)
	}
}

// run parses flags, builds the shard's slice of the deterministic
// pipeline and serves it until the server is closed or a signal
// arrives on sigs — SIGINT/SIGTERM trigger a graceful shutdown: stop
// accepting, let in-flight conversations and push subscribers drain
// within the -grace budget, then exit 0. When started is non-nil it
// receives the listening server once ready (tests use it to drive and
// then stop the process loop).
func run(args []string, out io.Writer, sigs <-chan os.Signal, started chan<- *transport.ShardServer) error {
	fs := flag.NewFlagSet("shardd", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:7101", "TCP address to serve the shard on")
	shardIdx := fs.Int("shard", 0, "index of the partition this process owns")
	numShards := fs.Int("of", 1, "total number of partitions in the deployment")
	seal := fs.Int("seal", 128, "active-segment seal threshold")
	dataDir := fs.String("data-dir", "", "directory for the disk tier: sealed segments past -spill posts are written to mmap-backed files under <data-dir>/shard-<i>; empty keeps every segment in memory")
	spill := fs.Int("spill", 0, "minimum segment size (posts) the disk tier accepts; 0 means 4x -seal (only meaningful with -data-dir)")
	admin := fs.String("admin", "", "optional host:port for the admin HTTP plane (/metrics, /healthz, /stats, /debug/pprof/)")
	grace := fs.Duration("grace", 5*time.Second, "in-flight drain budget on SIGINT/SIGTERM before connections are force-closed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *numShards < 1 || *shardIdx < 0 || *shardIdx >= *numShards {
		return fmt.Errorf("shardd: -shard %d -of %d is not a valid partition", *shardIdx, *numShards)
	}

	// The same deterministic build every shardd and the coordinator run;
	// agreement is verified per-connection by the transport handshake.
	pipeline, err := core.BuildPipeline(core.TinyPipelineConfig())
	if err != nil {
		return err
	}
	part := shard.Partition(pipeline.Corpus, *shardIdx, *numShards)
	// One registry spans the process: the index's ingest accounting and
	// the server's wire accounting land in the same /metrics namespace.
	var reg *obs.Registry
	if *admin != "" {
		reg = obs.NewRegistry()
	}
	// Each shard owns its own <data-dir>/shard-<i>: the index removes
	// stale segment files at startup, and replicas of the same shard on
	// one machine must still point at distinct -data-dirs.
	icfg := ingest.Config{SealThreshold: *seal, CompactFanIn: compactFanIn, SpillDir: *dataDir, SpillThreshold: *spill, Obs: reg}
	idx := ingest.New(part, shard.ShardConfig(icfg, *shardIdx))
	defer idx.Close()

	scfg := transport.DefaultServerConfig(*shardIdx, *numShards)
	scfg.Obs = reg
	srv, err := transport.Listen(*addr, idx, scfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	if *admin != "" {
		adm, err := obs.StartAdmin(*admin, obs.AdminConfig{
			Registry: reg,
			Stats:    func() any { return idx.Stats() },
		})
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Fprintf(out, "shardd: admin plane on http://%s (/metrics /healthz /stats /debug/pprof/)\n", adm.Addr())
	}
	fmt.Fprintf(out, "shardd: shard %d/%d on %s — %d base tweets (%d total in world), seal %d, fan-in %d\n",
		*shardIdx, *numShards, srv.Addr(), part.NumTweets(), pipeline.Corpus.NumTweets(), *seal, compactFanIn)
	if started != nil {
		started <- srv
	}
	if sigs != nil {
		done := make(chan struct{})
		go func() {
			srv.Wait()
			close(done)
		}()
		select {
		case sig := <-sigs:
			fmt.Fprintf(out, "shardd: %v — draining (grace %v)\n", sig, *grace)
			if err := srv.Shutdown(*grace); err != nil {
				return err
			}
			fmt.Fprintln(out, "shardd: drained, bye")
			return nil
		case <-done:
			return nil
		}
	}
	srv.Wait()
	return nil
}
