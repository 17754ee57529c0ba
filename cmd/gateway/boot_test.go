package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expertise"
	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/shard"
	"repro/internal/transport"
)

var update = flag.Bool("update", false, "rewrite tiny.artifact from a fresh build of the offline stage")

var (
	pipeOnce sync.Once
	pipe     *core.Pipeline
	pipeErr  error
)

// tinyPipeline is the offline and online build the gateway's artifact
// is pinned to, built once per test binary.
func tinyPipeline(t testing.TB) *core.Pipeline {
	t.Helper()
	pipeOnce.Do(func() { pipe, pipeErr = core.BuildPipeline(core.TinyPipelineConfig()) })
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe
}

// TestArtifactIsFresh pins the embedded serving artifact byte for byte
// to a fresh build of core.TinyPipelineConfig(): a change to the
// offline stage, the corpus generator or the encoding fails here until
// `make artifact` (this test with -update) rewrites tiny.artifact.
func TestArtifactIsFresh(t *testing.T) {
	var fresh bytes.Buffer
	if err := tinyPipeline(t).Artifact().Encode(&fresh); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("tiny.artifact", fresh.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(fresh.Bytes(), tinyArtifact) {
		i := 0
		for i < min(fresh.Len(), len(tinyArtifact)) && fresh.Bytes()[i] == tinyArtifact[i] {
			i++
		}
		t.Fatalf("tiny.artifact (%d bytes) is stale: a fresh build is %d bytes and differs from byte %d; run `make artifact`",
			len(tinyArtifact), fresh.Len(), i)
	}
}

// serveShards starts n in-test shardds — loopback ShardServers over the
// base partitions of p — and returns their addresses as -remote reads
// them.
func serveShards(t testing.TB, p *core.Pipeline, n int) string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		idx := ingest.New(shard.Partition(p.Corpus, i, n), ingest.Config{DisableCompactor: true})
		srv, err := transport.Listen("127.0.0.1:0", idx, transport.DefaultServerConfig(i, n))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Close()
			idx.Close()
		})
		addrs[i] = srv.Addr().String()
	}
	return strings.Join(addrs, ",")
}

// TestServedEqualsBuilt boots the gateway through run, from the
// embedded artifact, and asks it every evaluation query: each answer's
// experts must be byte-identical to the JSON of BuildPipeline's cold
// Detector's ranking — served by two in-test shardds (-remote) and by
// two in-process shards.
func TestServedEqualsBuilt(t *testing.T) {
	fault.CheckLeaks(t)
	p := tinyPipeline(t)
	var pool []string
	for _, set := range eval.BuildQuerySets(p.World, p.Log, eval.SetSizes{PerCategory: 25, Top: 60}) {
		pool = append(pool, set.Queries...)
	}
	if len(pool) == 0 {
		t.Fatal("no evaluation queries")
	}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"remote", []string{"-remote", serveShards(t, p, 2)}},
		{"in-process", []string{"-shards", "2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			addr, sigs, done, _ := bootGateway(t, c.args...)
			defer func() {
				sigs <- syscall.SIGTERM
				if err := <-done; err != nil {
					t.Fatalf("run returned %v", err)
				}
			}()
			for _, q := range pool {
				reqBody, _ := json.Marshal(map[string]string{"query": q})
				req, _ := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/search", bytes.NewReader(reqBody))
				req.Header.Set("Authorization", "Bearer dev")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var got struct {
					Experts json.RawMessage `json:"experts"`
				}
				if err := json.Unmarshal(body, &got); err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("%q: status %d, body %s (err %v)", q, resp.StatusCode, body, err)
				}
				experts, _ := p.Detector.Search(q)
				if experts == nil {
					experts = []expertise.Expert{} // the gateway never sends null
				}
				want, _ := json.Marshal(experts)
				if !bytes.Equal(got.Experts, want) {
					t.Fatalf("%q: served\n  %s\nbuilt\n  %s", q, got.Experts, want)
				}
			}
		})
	}
}

// remoteBootBytes bounds what a -remote gateway allocates from run's
// start to ready: the world, the decoded artifact, the serving layer
// and one handshake — measured at 0.85 MB. A boot that runs the
// offline stage and generates the corpus allocates 11.8 MB.
const remoteBootBytes = 2 << 20

// TestRemoteBootAllocs pins the -remote boot's allocation: a gateway
// that builds a click log, a graph, a clustering, a corpus or a cold
// Detector goes over remoteBootBytes.
func TestRemoteBootAllocs(t *testing.T) {
	fault.CheckLeaks(t)
	remote := serveShards(t, tinyPipeline(t), 1)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, sigs, done, _ := bootGateway(t, "-remote", remote)
	runtime.ReadMemStats(&after)
	sigs <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > remoteBootBytes {
		t.Fatalf("a -remote boot allocated %d bytes, over its %d-byte bound", got, remoteBootBytes)
	}
	t.Logf("a -remote boot allocated %d bytes", after.TotalAlloc-before.TotalAlloc)
}

// BenchmarkBoot times run from its start to ready: with -remote (one
// in-test shardd), and over two in-process shards. The drain after
// each boot is outside the timer.
func BenchmarkBoot(b *testing.B) {
	p := tinyPipeline(b)
	for _, c := range []struct {
		name string
		args []string
	}{
		{"remote", []string{"-remote", serveShards(b, p, 1)}},
		{"in-process", []string{"-shards", "2"}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			args := append([]string{"-addr", "127.0.0.1:0"}, c.args...)
			for i := 0; i < b.N; i++ {
				ready := make(chan string, 1)
				sigs := make(chan os.Signal, 1)
				done := make(chan error, 1)
				go func() { done <- run(args, io.Discard, sigs, ready) }()
				select {
				case <-ready:
				case err := <-done:
					b.Fatal(err)
				}
				b.StopTimer()
				sigs <- syscall.SIGTERM
				if err := <-done; err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
