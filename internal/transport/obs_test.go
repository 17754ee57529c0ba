package transport_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/transport"
)

// metricValue finds one row in a registry snapshot; missing rows fail
// the test.
func metricValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q not in registry snapshot", name)
	return 0
}

// TestObsPromotesRequestCounters is the counter-promotion satellite:
// the server's pre-existing per-op request counters (the accounting the
// RPC tests assert on) must surface as registry rows without double
// counting — the registry row and Requests(op) read the same atomic.
func TestObsPromotesRequestCounters(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	part := shard.Partition(p.Corpus, 0, 1)
	idx := ingest.New(part, ingest.DefaultConfig())
	defer idx.Close()

	serverReg := obs.NewRegistry()
	scfg := transport.DefaultServerConfig(0, 1)
	scfg.Obs = serverReg
	srv, err := transport.Listen("127.0.0.1:0", idx, scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clientReg := obs.NewRegistry()
	ccfg := testClientConfig()
	ccfg.Obs = clientReg
	c := transport.NewRemoteShard(srv.Addr().String(), ccfg)
	defer c.Close()
	if err := c.Handshake(0, 1, len(p.World.Users), part.NumTweets()); err != nil {
		t.Fatal(err)
	}

	// Drive a few distinct ops so several per-op rows move.
	for i := 0; i < 3; i++ {
		_, _, _, v, err := c.SearchStats(context.Background(), []string{"storm"}, true, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		v.Release()
	}
	for posts := streamPosts(p, 7, 2); len(posts) > 0; posts = posts[1:] {
		if err := c.IngestBatch(posts[:1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}

	// Server side: every request op's registry row must equal the
	// Requests(op) accounting — same atomic, promoted not duplicated.
	for _, op := range []transport.Op{
		transport.OpSearchStats, transport.OpStats, transport.OpIngest,
		transport.OpQuiesce, transport.OpInfo,
	} {
		row := fmt.Sprintf("rpc_server_%s_requests", op.Name())
		if got, want := metricValue(t, serverReg, row), srv.Requests(op); got != want {
			t.Errorf("%s = %d, Requests(%s) = %d — promotion out of sync", row, got, op.Name(), want)
		}
	}
	if got := metricValue(t, serverReg, "rpc_server_search_stats_requests"); got != 3 {
		t.Errorf("rpc_server_search_stats_requests = %d, want 3", got)
	}
	if metricValue(t, serverReg, "rpc_server_bytes_read") <= 0 ||
		metricValue(t, serverReg, "rpc_server_bytes_written") <= 0 {
		t.Error("server byte accounting did not move")
	}
	// The server times a request until its response is flushed, so it
	// records after the client already has the answer: wait for the
	// last observation instead of racing it.
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, serverReg, "rpc_server_search_stats_ns_count") != 3 {
		if time.Now().After(deadline) {
			t.Errorf("server search latency histogram recorded %d requests, want 3",
				metricValue(t, serverReg, "rpc_server_search_stats_ns_count"))
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Client side mirrors its own view of the same traffic.
	if got := metricValue(t, clientReg, "rpc_client_search_stats_requests"); got != 3 {
		t.Errorf("rpc_client_search_stats_requests = %d, want 3", got)
	}
	if got := metricValue(t, clientReg, "rpc_client_ingest_requests"); got != 2 {
		t.Errorf("rpc_client_ingest_requests = %d, want 2", got)
	}
	if metricValue(t, clientReg, "rpc_client_bytes_read") <= 0 ||
		metricValue(t, clientReg, "rpc_client_bytes_written") <= 0 {
		t.Error("client byte accounting did not move")
	}
	if got, want := metricValue(t, clientReg, "rpc_client_dials"), c.Dials(); got != want {
		t.Errorf("rpc_client_dials = %d, Dials() = %d", got, want)
	}
	if metricValue(t, clientReg, "rpc_client_search_stats_ns_count") != 3 {
		t.Error("client search latency histogram did not record 3 round trips")
	}

	// The wire exports exactly these rows: per-op rows for the request
	// ops, byte counters, dials, epoch round trips (subscribe exchanges)
	// and pushes — nothing for the retired epoch probe or compression.
	metricValue(t, clientReg, "rpc_client_epoch_rtts")
	want := map[string]bool{"bytes_read": true, "bytes_written": true, "dials": true, "epoch_rtts": true, "pushes": true}
	for _, op := range []transport.Op{transport.OpStats, transport.OpIngest, transport.OpQuiesce,
		transport.OpInfo, transport.OpTweets, transport.OpSubscribe, transport.OpSearchStats, transport.OpUnpin} {
		want[op.Name()+"_requests"] = true
		for _, row := range []string{"_count", "_p50", "_p99", "_max"} {
			want[op.Name()+"_ns"+row] = true
		}
	}
	for _, reg := range []*obs.Registry{serverReg, clientReg} {
		for _, m := range reg.Snapshot() {
			if !want[strings.TrimPrefix(strings.TrimPrefix(m.Name, "rpc_client_"), "rpc_server_")] {
				t.Errorf("unexpected wire row %s", m.Name)
			}
		}
	}
}

// TestObsUninstrumentedServerStillCounts pins the fallback the promotion
// must preserve: with no registry attached, Requests(op) keeps
// counting — the RPC-accounting tests depend on it.
func TestObsUninstrumentedServerStillCounts(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	part := shard.Partition(p.Corpus, 0, 1)
	idx := ingest.New(part, ingest.DefaultConfig())
	defer idx.Close()
	srv, err := transport.Listen("127.0.0.1:0", idx, transport.DefaultServerConfig(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := transport.NewRemoteShard(srv.Addr().String(), testClientConfig())
	defer c.Close()
	if err := c.Handshake(0, 1, len(p.World.Users), part.NumTweets()); err != nil {
		t.Fatal(err)
	}
	_, _, _, v, err := c.SearchStats(context.Background(), []string{"storm"}, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	v.Release()
	if got := srv.Requests(transport.OpSearchStats); got != 1 {
		t.Fatalf("un-instrumented Requests(OpSearchStats) = %d, want 1", got)
	}
}

// TestObsSharedRegistrySums: servers (and clients) sharing one registry
// add into one row each — a second server's rows neither replace the
// first one's nor drop them.
func TestObsSharedRegistrySums(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	serverReg, clientReg := obs.NewRegistry(), obs.NewRegistry()
	var srvs [2]*transport.ShardServer
	var clients [2]*transport.RemoteShard
	for i := range srvs {
		part := shard.Partition(p.Corpus, i, 2)
		idx := ingest.New(part, ingest.DefaultConfig())
		defer idx.Close()
		scfg := transport.DefaultServerConfig(i, 2)
		scfg.Obs = serverReg
		srv, err := transport.Listen("127.0.0.1:0", idx, scfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ccfg := testClientConfig()
		ccfg.Obs = clientReg
		c := transport.NewRemoteShard(srv.Addr().String(), ccfg)
		defer c.Close()
		if err := c.Handshake(i, 2, len(p.World.Users), part.NumTweets()); err != nil {
			t.Fatal(err)
		}
		// Server i answers i+1 searches.
		for range i + 1 {
			_, _, _, v, err := c.SearchStats(context.Background(), []string{"storm"}, true, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			v.Release()
		}
		srvs[i], clients[i] = srv, c
	}
	if got := metricValue(t, serverReg, "rpc_server_search_stats_requests"); got != 3 {
		t.Errorf("rpc_server_search_stats_requests = %d, want 3 (1 + 2)", got)
	}
	if got, want := metricValue(t, serverReg, "rpc_server_info_requests"),
		srvs[0].Requests(transport.OpInfo)+srvs[1].Requests(transport.OpInfo); got != want {
		t.Errorf("rpc_server_info_requests = %d, want the servers' sum %d", got, want)
	}
	if got := metricValue(t, clientReg, "rpc_client_search_stats_requests"); got != 3 {
		t.Errorf("rpc_client_search_stats_requests = %d, want 3 (1 + 2)", got)
	}
	if got, want := metricValue(t, clientReg, "rpc_client_dials"), clients[0].Dials()+clients[1].Dials(); got != want {
		t.Errorf("rpc_client_dials = %d, want the clients' sum %d", got, want)
	}
}
