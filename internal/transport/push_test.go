// Tests for the PR 6 round-trip killers: the server→client epoch push
// (OpSubscribe/OpEpochDelta), the composite OpSearchStats pipeline, the
// per-client dial budget. The load-bearing
// assertions are RPC-counted: the server counts requests per op and
// pushes, the client counts epoch round trips, so "one round trip per
// warm query" and "zero probes on a subscribed connection" are measured,
// not inferred from latency.
package transport_test

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/shard"
	"repro/internal/transport"
)

// startCountedShardServers is startShardServers but returns the server
// handles too, for the RPC-accounting assertions.
func startCountedShardServers(t testing.TB, p *core.Pipeline, n int, icfg ingest.Config) ([]*transport.ShardServer, []*transport.RemoteShard) {
	t.Helper()
	servers := make([]*transport.ShardServer, n)
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
		servers[i], clients[i] = srv, c
	}
	return servers, clients
}

// TestSubscribePushUpdatesEpoch pins the push channel end to end: after
// the first Epoch subscribes, ingests bump the server's epoch and the
// client's cached value catches up via OpEpochDelta pushes alone — the
// server fields no request but the handshake, the writes and the one
// subscribe, and the client spends exactly one epoch round trip ever.
func TestSubscribePushUpdatesEpoch(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	servers, clients := startCountedShardServers(t, p, 1, ingest.DefaultConfig())
	srv, c := servers[0], clients[0]

	if _, err := c.Epoch(); err != nil {
		t.Fatal(err)
	}
	if !c.Subscribed() || !c.EpochIsLocal() {
		t.Fatal("first Epoch did not establish a subscription")
	}
	if got := c.EpochRTTs(); got != 1 {
		t.Fatalf("subscribe cost %d epoch round trips, want 1", got)
	}

	for _, post := range streamPosts(p, 211, 5) {
		if err := c.IngestBatch([]microblog.Post{post}); err != nil {
			t.Fatal(err)
		}
	}
	// The ingest responses carry no epoch; only pushes can move the
	// cached value. Poll until it catches the server (compaction may
	// bump the server further while we poll, so chase the live value).
	deadline := time.Now().Add(5 * time.Second)
	for {
		want := srv.Index().Epoch()
		got, err := c.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		if got == want && got > 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pushed epoch stuck at %d, server at %d", got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for op := transport.Op(1); op < transport.OpError; op++ {
		switch op {
		case transport.OpInfo, transport.OpIngest, transport.OpSubscribe:
			continue
		}
		if got := srv.Requests(op); got != 0 {
			t.Fatalf("subscribed client sent %d frames of op 0x%02x", got, byte(op))
		}
	}
	if got := srv.Pushes(); got == 0 {
		t.Fatal("server recorded zero pushes after 5 epoch bumps")
	}
	if got := c.EpochRTTs(); got != 1 {
		t.Fatalf("warm epoch reads spent %d round trips, want the 1 subscribe", got)
	}
}

// TestOpIngestFrameIsOneEpoch pins the served write as a batch: one
// K-post OpIngest frame, spanning several seals, is one publish on the
// server — the epoch advances by exactly 1 and a subscribed connection
// is pushed exactly one OpEpochDelta for it, carrying that epoch. (The
// compactor is off, so nothing else publishes.)
func TestOpIngestFrameIsOneEpoch(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	servers, clients := startCountedShardServers(t, p, 1,
		ingest.Config{SealThreshold: 16, CompactFanIn: 3, DisableCompactor: true})
	srv, c := servers[0], clients[0]

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := conn.Write(transport.AppendFrame(nil, transport.OpSubscribe, nil)); err != nil {
		t.Fatal(err)
	}
	op, payload, buf, err := transport.ReadFrame(br, nil)
	if err != nil || op != transport.OpSubscribe {
		t.Fatalf("subscribe ack: op %v, err %v", op, err)
	}
	ack, _, err := transport.ConsumeEpochResp(payload)
	if err != nil {
		t.Fatal(err)
	}

	const k = 100
	if err := c.IngestBatch(streamPosts(p, 223, k)); err != nil {
		t.Fatal(err)
	}
	if got := srv.Requests(transport.OpIngest); got != 1 {
		t.Fatalf("%d posts crossed in %d OpIngest frames, want 1", k, got)
	}
	if st := srv.Index().Stats(); st.Seals < 2 || st.Epoch != ack.Epoch+1 {
		t.Fatalf("one %d-post frame: %d seals, epoch %d → %d; want several seals and one epoch", k, st.Seals, ack.Epoch, st.Epoch)
	}

	op, payload, buf, err = transport.ReadFrame(br, buf)
	if err != nil || op != transport.OpEpochDelta {
		t.Fatalf("after the frame: op %v, err %v, want an OpEpochDelta", op, err)
	}
	if d, _, err := transport.ConsumeEpochResp(payload); err != nil || d.Epoch != ack.Epoch+1 {
		t.Fatalf("delta %+v (err %v), want epoch %d", d, err, ack.Epoch+1)
	}
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if op, _, _, err := transport.ReadFrame(br, buf); err == nil {
		t.Fatalf("a second frame (op 0x%02x) followed the one delta", byte(op))
	}
}

// TestWarmQuerySingleRoundTrip is the acceptance bar of the pipelining
// tentpole, RPC-counted: on a healthy warm connection to a single-shard
// server, one detector query costs exactly one OpSearchStats frame —
// no OpStats, no OpUnpin — and epoch-vector
// sampling on the subscribed client costs zero requests of any kind.
func TestWarmQuerySingleRoundTrip(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	servers, clients := startCountedShardServers(t, p, 1, ingest.DefaultConfig())
	srv, c := servers[0], clients[0]
	cluster := shard.NewCluster(p.World, c)
	det := core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)

	// Warm up: the first sample subscribes, the first query dials the
	// query connection (one OpInfo negotiation ride-along).
	if _, err := cluster.EpochVector(nil); err != nil {
		t.Fatal(err)
	}
	if experts, _ := det.Search("49ers"); len(experts) == 0 {
		t.Fatal("warmup query found no experts")
	}

	ops := []transport.Op{transport.OpSearchStats, transport.OpStats,
		transport.OpUnpin, transport.OpInfo, transport.OpSubscribe}
	before := make(map[transport.Op]int64, len(ops))
	for _, op := range ops {
		before[op] = srv.Requests(op)
	}
	dials, rtts := c.Dials(), c.EpochRTTs()

	const k = 8
	queries := []string{"49ers", "nfl", "diabetes", "coffee"}
	for i := 0; i < k; i++ {
		det.Search(queries[i%len(queries)])
	}
	if got := srv.Requests(transport.OpSearchStats) - before[transport.OpSearchStats]; got != k {
		t.Fatalf("%d warm queries sent %d OpSearchStats frames, want exactly %d", k, got, k)
	}
	for _, op := range []transport.Op{transport.OpStats,
		transport.OpUnpin, transport.OpInfo, transport.OpSubscribe} {
		if got := srv.Requests(op) - before[op]; got != 0 {
			t.Fatalf("%d warm queries sent %d extra frames of op 0x%02x, want 0", k, got, byte(op))
		}
	}
	if got := c.Dials() - dials; got != 0 {
		t.Fatalf("warm queries dialed %d fresh connections", got)
	}

	// Epoch sampling on the subscribed client is a memory read: zero
	// frames of any kind, zero epoch round trips.
	for i := 0; i < 32; i++ {
		if _, err := cluster.EpochVector(nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range ops {
		if got := srv.Requests(op) - before[op]; op != transport.OpSearchStats && got != 0 {
			t.Fatalf("32 epoch samples sent %d frames of op 0x%02x, want 0", got, byte(op))
		}
	}
	if got := c.EpochRTTs() - rtts; got != 0 {
		t.Fatalf("32 warm epoch samples spent %d round trips, want 0", got)
	}
}

// TestCompositeTopUpAccounting pins the multi-shard pipeline shape: at
// N=2 every scatter leg is an OpSearchStats composite, the only OpStats
// frames are the foreign-candidate top-ups
// (at most one per shard per query), and the results stay bit-identical
// to a cold single-process detector over the same content.
func TestCompositeTopUpAccounting(t *testing.T) {
	fault.CheckLeaks(t)
	p, sets := testPipeline(t)
	posts := streamPosts(p, 97, 300)
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}
	const n = 2

	servers, clients := startCountedShardServers(t, p, n, icfg)
	backends := make([]shard.Backend, n)
	for i, c := range clients {
		backends[i] = c
	}
	cluster := shard.NewCluster(p.World, backends...)
	if err := cluster.IngestBatch(posts); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Quiesce(); err != nil {
		t.Fatal(err)
	}
	remote := core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)
	cold := core.NewDetector(p.Collection, p.Corpus.ExtendedWith(posts), p.Cfg.Online)

	queries := 0
	for _, set := range sets {
		for _, q := range set.Queries {
			queries++
			got, _ := remote.Search(q)
			want, _ := cold.Search(q)
			expertsIdentical(t, "composite-vs-cold", q, got, want)
		}
	}
	var searchStats, stats int64
	for _, srv := range servers {
		searchStats += srv.Requests(transport.OpSearchStats)
		stats += srv.Requests(transport.OpStats)
	}
	if want := int64(queries * n); searchStats != want {
		t.Fatalf("%d queries over %d shards sent %d OpSearchStats frames, want %d",
			queries, n, searchStats, want)
	}
	if max := int64(queries * n); stats > max {
		t.Fatalf("top-ups sent %d OpStats frames for %d scatter legs — more than one per leg", stats, max)
	}
	if pq, se := remote.PartialStats(); pq != 0 || se != 0 {
		t.Fatalf("healthy composite cluster reported partial queries %d, shard errors %d", pq, se)
	}
}

// TestSubscriptionLapseResubscribes pins the fallback: when the push
// connection dies, the client notices, drops to unsubscribed, and the
// next Epoch re-subscribes on a fresh dial with a correct value — the
// lapse costs one dial and one epoch round trip, not a wrong answer.
func TestSubscriptionLapseResubscribes(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	addr := startOneServer(t, p, ingest.DefaultConfig())

	d := fault.NewDialer()
	cfg := testClientConfig()
	cfg.Dial = d.Dial
	c := transport.NewRemoteShard(addr, cfg)
	defer c.Close()

	if _, err := c.Epoch(); err != nil {
		t.Fatal(err)
	}
	if !c.Subscribed() {
		t.Fatal("first Epoch did not subscribe")
	}
	dials := c.Dials()

	d.KillAll()
	deadline := time.Now().Add(5 * time.Second)
	for c.Subscribed() {
		if time.Now().After(deadline) {
			t.Fatal("client never noticed the killed push connection")
		}
		time.Sleep(2 * time.Millisecond)
	}

	epoch, err := c.Epoch()
	if err != nil {
		t.Fatalf("epoch after subscription lapse: %v", err)
	}
	if epoch == 0 {
		t.Fatal("re-subscribed epoch is zero")
	}
	if !c.Subscribed() {
		t.Fatal("epoch after lapse did not re-subscribe")
	}
	if got := c.Dials(); got != dials+1 {
		t.Fatalf("lapse recovery dialed %d extra conns, want 1", got-dials)
	}
	if got := c.EpochRTTs(); got != 2 {
		t.Fatalf("subscribe + resubscribe spent %d epoch round trips, want 2", got)
	}
}

// TestDialBudgetCapsReconnects pins the retry-budget satellite at the
// client itself: with a dead server, a burst of requests costs one dial
// attempt per backoff window — the rest fail immediately with
// shard.ErrBackoff — and the window expiry grants exactly one more.
func TestDialBudgetCapsReconnects(t *testing.T) {
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	const window = 300 * time.Millisecond
	var attempts int64
	cfg := transport.ClientConfig{
		Timeout:     200 * time.Millisecond,
		DialBackoff: shard.Backoff{Initial: window, Max: window},
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			attempts++
			return net.DialTimeout("tcp", addr, timeout)
		},
	}
	c := transport.NewRemoteShard(deadAddr, cfg)
	defer c.Close()

	sawBackoff := false
	for i := 0; i < 16; i++ {
		_, err := c.Epoch()
		if err == nil {
			t.Fatal("epoch against a dead address succeeded")
		}
		if errors.Is(err, shard.ErrBackoff) {
			sawBackoff = true
		}
	}
	if attempts != 1 {
		t.Fatalf("16 requests inside one backoff window attempted %d dials, want 1", attempts)
	}
	if !sawBackoff {
		t.Fatal("suppressed requests did not surface shard.ErrBackoff")
	}
	if c.Health().Healthy() {
		t.Fatal("client health reports healthy after a failed dial")
	}

	time.Sleep(window + 50*time.Millisecond)
	for i := 0; i < 8; i++ {
		c.Epoch()
	}
	if attempts != 2 {
		t.Fatalf("requests after window expiry attempted %d total dials, want 2", attempts)
	}
	// No OpSubscribe was ever answered, so no epoch round trip counts.
	if n := c.EpochRTTs(); n != 0 {
		t.Fatalf("counted %d epoch round trips against a dead address, want 0", n)
	}
}

// TestNewOpPayloadTruncationEveryOffset holds the new decoders to the
// truncation bar the original codecs meet: every strict prefix of a
// valid payload must be rejected.
func TestNewOpPayloadTruncationEveryOffset(t *testing.T) {
	full := seedFrames()
	searchStats := full[1][5:] // OpSearchStats response payload, 2 rows
	if _, _, err := transport.ConsumeSearchStatsResp(nil, nil, searchStats); err != nil {
		t.Fatalf("seed SearchStatsResp does not decode: %v", err)
	}
	for cut := 0; cut < len(searchStats); cut++ {
		if _, _, err := transport.ConsumeSearchStatsResp(nil, nil, searchStats[:cut]); err == nil {
			t.Fatalf("SearchStatsResp prefix of %d/%d bytes decoded", cut, len(searchStats))
		}
	}
}

// TestSearchStatsSurvivesWireTruncation sweeps a byte budget over live
// composite conversations: at every cutoff the client either fails
// cleanly or returns exactly what a clean connection returns — never a
// partial or garbled composite.
func TestSearchStatsSurvivesWireTruncation(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	addr := startOneServer(t, p, ingest.DefaultConfig())

	clean := transport.NewRemoteShard(addr, testClientConfig())
	defer clean.Close()
	terms := []string{"49ers", "nfl"}
	wantRows, wantMatched, wantStats, v, err := clean.SearchStats(context.Background(), terms, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	v.Release()

	for limit := 0; limit < 600; limit += 7 {
		d := fault.NewDialer()
		d.TruncateAll(limit)
		cfg := testClientConfig()
		cfg.Dial = d.Dial
		cfg.Timeout = 500 * time.Millisecond
		c := transport.NewRemoteShard(addr, cfg)
		rows, matched, stats, view, err := c.SearchStats(context.Background(), terms, false, nil, nil)
		if err == nil {
			if matched != wantMatched || len(rows) != len(wantRows) || len(stats) != len(wantStats) {
				t.Fatalf("limit %d: truncated conn returned matched %d rows %d stats %d, clean %d/%d/%d",
					limit, matched, len(rows), len(stats), wantMatched, len(wantRows), len(wantStats))
			}
			for i := range wantRows {
				if rows[i] != wantRows[i] || stats[i] != wantStats[i] {
					t.Fatalf("limit %d: row %d differs under truncation", limit, i)
				}
			}
			view.Release()
		}
		c.Close()
	}
}

// TestPushInterleavesWithResponses drives one raw socket through a
// subscribe-then-query conversation while another client ingests: the
// server's pusher and request handler share the write side of the
// connection, and every OpSearchStats response must arrive intact among
// the interleaved OpEpochDelta frames.
func TestPushInterleavesWithResponses(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	addr := startOneServer(t, p, ingest.DefaultConfig())

	ingester := transport.NewRemoteShard(addr, testClientConfig())
	defer ingester.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	br := bufio.NewReader(conn)

	if _, err := conn.Write(transport.AppendFrame(nil, transport.OpSubscribe, nil)); err != nil {
		t.Fatal(err)
	}
	op, payload, buf, err := transport.ReadFrame(br, nil)
	if err != nil || op != transport.OpSubscribe {
		t.Fatalf("subscribe ack: op %v, err %v", op, err)
	}
	if _, _, err := transport.ConsumeEpochResp(payload); err != nil {
		t.Fatalf("subscribe ack payload: %v", err)
	}

	// Ingest churn in the background: every post bumps the epoch, so
	// deltas race the query responses on this connection's write side.
	done := make(chan error, 1)
	go func() {
		posts := streamPosts(p, 149, 200)
		for _, post := range posts {
			if err := ingester.IngestBatch([]microblog.Post{post}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	searchReq := transport.AppendFrame(nil, transport.OpSearchStats,
		transport.AppendSearchReq(nil, transport.SearchReq{Terms: []string{"49ers"}}))
	deltas := 0
	for i := 0; i < 25; i++ {
		if _, err := conn.Write(searchReq); err != nil {
			t.Fatal(err)
		}
		for {
			op, payload, buf, err = transport.ReadFrame(br, buf)
			if err != nil {
				t.Fatalf("query %d: read among pushes: %v", i, err)
			}
			if op == transport.OpEpochDelta {
				deltas++
				if _, _, err := transport.ConsumeEpochResp(payload); err != nil {
					t.Fatalf("query %d: corrupt delta among responses: %v", i, err)
				}
				continue
			}
			break
		}
		if op != transport.OpSearchStats {
			t.Fatalf("query %d: got op 0x%02x, want OpSearchStats response", i, byte(op))
		}
		if _, _, err := transport.ConsumeSearchStatsResp(nil, nil, payload); err != nil {
			t.Fatalf("query %d: response corrupted by interleaved pushes: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// 200 epoch bumps with coalescing: at least one delta must have
	// landed on this subscribed connection by the time ingest finishes.
	for deltas == 0 {
		op, payload, buf, err = transport.ReadFrame(br, buf)
		if err != nil {
			t.Fatalf("no delta ever arrived: %v", err)
		}
		if op == transport.OpEpochDelta {
			deltas++
		}
	}
}

// TestPushRaceHammer is the -race bar for the new machinery: searchers
// on the composite path, epoch-vector samplers on the subscribed
// clients and routed ingesters all hammer a 2-shard remote cluster
// concurrently; afterwards the quiesced epoch vector must match the
// servers' own epochs exactly.
func TestPushRaceHammer(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	servers, clients := startCountedShardServers(t, p, 2, ingest.Config{SealThreshold: 16, CompactFanIn: 3})
	backends := make([]shard.Backend, len(clients))
	for i, c := range clients {
		backends[i] = c
	}
	cluster := shard.NewCluster(p.World, backends...)
	det := core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)
	queries := []string{"49ers", "nfl", "diabetes", "coffee", "zzz-none"}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, post := range streamPosts(p, uint64(500+g), 150) {
				if err := cluster.IngestBatch([]microblog.Post{post}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				det.Search(queries[(g+i)%len(queries)])
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := cluster.EpochVector(nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if pq, se := det.PartialStats(); pq != 0 || se != 0 {
		t.Fatalf("healthy hammered cluster reported partial queries %d, shard errors %d", pq, se)
	}
	if err := cluster.Quiesce(); err != nil {
		t.Fatal(err)
	}
	// After quiesce the pushed values must settle to the servers' own.
	deadline := time.Now().Add(5 * time.Second)
	for {
		vec, err := cluster.EpochVector(nil)
		if err != nil {
			t.Fatal(err)
		}
		settled := true
		for i, srv := range servers {
			if vec[i] != srv.Index().Epoch() {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch vector %v never settled to server epochs", vec)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
