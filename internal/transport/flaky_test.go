// Fault-injection tests: the transport's failure contract under
// dropped, truncated, delayed and fragmented connections, driven by
// the shared chaos harness in internal/fault. The wire makes three
// promises — reconnects happen (once, for stale pooled connections),
// deadlines fire (no request outlives its timeout), and a short read
// or write never corrupts a frame (a request either gets the complete
// response or a clean error, never a garbled one) — the fail-fast
// partial-result counts land in serve.Stats, and a *dead* shard costs
// the epoch sampler one dial per backoff window, not one per request.
package transport_test

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/transport"
)

// startOneServer boots a single-shard loopback server over the full
// base corpus and returns its address.
func startOneServer(t testing.TB, p *core.Pipeline, icfg ingest.Config) string {
	t.Helper()
	idx := ingest.New(shard.Partition(p.Corpus, 0, 1), icfg)
	srv, err := transport.Listen("127.0.0.1:0", idx, transport.DefaultServerConfig(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		idx.Close()
	})
	return srv.Addr().String()
}

// TestReconnectAfterStaleConn pins the reconnect path: a pooled
// connection dies between requests (server restart, idle reaping —
// here an injected kill), the next request fails its first round trip,
// and the client transparently redials exactly once and succeeds.
func TestReconnectAfterStaleConn(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	addr := startOneServer(t, p, ingest.DefaultConfig())

	d := fault.NewDialer()
	cfg := testClientConfig()
	cfg.Dial = d.Dial
	c := transport.NewRemoteShard(addr, cfg)
	defer c.Close()

	// Info is a request that goes through the pool. (Epoch would not do:
	// it dedicates a subscription connection and then answers from the
	// cache; that connection's own lapse/recovery is pinned by
	// TestSubscriptionLapseResubscribes.)
	if _, err := c.Info(); err != nil {
		t.Fatal(err)
	}
	if got := c.Dials(); got != 1 {
		t.Fatalf("first request dialed %d times", got)
	}
	// Kill the pooled connection under the client.
	d.KillAll()
	info, err := c.Info()
	if err != nil {
		t.Fatalf("request after dropped conn failed instead of reconnecting: %v", err)
	}
	if info.Epoch == 0 {
		t.Fatal("reconnected request returned zero epoch")
	}
	if got := c.Dials(); got != 2 {
		t.Fatalf("reconnect dialed %d total conns, want 2", got)
	}
}

// TestDeadlineFires pins the timeout contract: a server that accepts
// and then stalls forever must not hold a request past its deadline.
func TestDeadlineFires(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow the request, never answer.
			go func() { io.Copy(io.Discard, conn) }()
		}
	}()

	cfg := transport.ClientConfig{Timeout: 100 * time.Millisecond}
	c := transport.NewRemoteShard(ln.Addr().String(), cfg)
	defer c.Close()
	start := time.Now()
	_, err = c.Epoch()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stalled server answered?")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire with a 100ms timeout", elapsed)
	}
}

// TestShortReadsWritesPreserveFrames runs a full search→stats→ingest
// conversation over a connection fragmented to one byte per
// read/write and requires byte-identical behaviour to a clean
// connection: short IO must never corrupt or split a frame.
func TestShortReadsWritesPreserveFrames(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	addr := startOneServer(t, p, ingest.DefaultConfig())

	clean := transport.NewRemoteShard(addr, testClientConfig())
	defer clean.Close()
	d := fault.NewDialer()
	d.FragmentAll()
	fragCfg := testClientConfig()
	fragCfg.Dial = d.Dial
	frag := transport.NewRemoteShard(addr, fragCfg)
	defer frag.Close()

	terms := []string{"49ers", "nfl"}
	wantRows, wantMatched, wantView, err := clean.Search(context.Background(), terms, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer wantView.Release()
	gotRows, gotMatched, gotView, err := frag.Search(context.Background(), terms, false, nil)
	if err != nil {
		t.Fatalf("fragmented search failed: %v", err)
	}
	defer gotView.Release()
	if gotMatched != wantMatched || len(gotRows) != len(wantRows) {
		t.Fatalf("fragmented search: matched %d rows %d, clean %d/%d",
			gotMatched, len(gotRows), wantMatched, len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("row %d differs over fragmented conn: %+v vs %+v", i, gotRows[i], wantRows[i])
		}
	}
}

// TestTruncatedResponseFailsCleanly pins the short-read contract: a
// response cut mid-frame yields ErrFrameTruncated-shaped failure (or a
// clean EOF), never a partial decode, and the connection is not reused.
func TestTruncatedResponseFailsCleanly(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	addr := startOneServer(t, p, ingest.DefaultConfig())

	for _, limit := range []int{0, 1, 3, 4, 5} {
		d := fault.NewDialer()
		d.TruncateNext(limit)
		cfg := testClientConfig()
		cfg.Dial = d.Dial
		c := transport.NewRemoteShard(addr, cfg)
		if _, err := c.Epoch(); err == nil {
			t.Fatalf("limit %d: truncated response decoded successfully", limit)
		}
		c.Close()
	}
}

// TestPartialResultsLandInStats wires a 2-shard cluster whose second
// shard points at a dead address and requires (a) queries still answer
// from the healthy shard, fail-fast, and (b) the degradation is counted
// on the detector and surfaced through serve.Stats.
func TestPartialResultsLandInStats(t *testing.T) {
	p, _ := testPipeline(t)
	icfg := ingest.DefaultConfig()

	// Healthy shard 0 in-process; shard 1 behind a transport to nowhere:
	// reserve a port and close it so dials fail fast.
	idx0 := ingest.New(shard.Partition(p.Corpus, 0, 2), icfg)
	defer idx0.Close()
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	dead := transport.NewRemoteShard(deadAddr, transport.ClientConfig{Timeout: 200 * time.Millisecond})
	defer dead.Close()
	// Un-armed gates: they only count which call the read path makes.
	gate0, gate1 := fault.Wrap(shard.NewLocal(idx0)), fault.Wrap(dead)
	cluster := shard.NewCluster(p.World, gate0, gate1)
	det := core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)

	results, _ := det.Search("49ers")
	if pq, se := det.PartialStats(); pq != 1 || se != 1 {
		t.Fatalf("partial queries %d, shard errors %d after one degraded search, want 1, 1", pq, se)
	}
	// The healthy shard alone can still produce experts for a query its
	// partition answers; whether this particular one does depends on the
	// hash split, so only the counters are load-bearing above. Run a few
	// more to see the counts accumulate.
	for i := 0; i < 4; i++ {
		det.Search("nfl")
	}
	if pq, se := det.PartialStats(); pq != 5 || se != 5 {
		t.Fatalf("partial queries %d, shard errors %d after five degraded requests", pq, se)
	}
	_ = results
	// The degradation above is the production path's: every query
	// reached both shards as exactly one composite call.
	for i, g := range []*fault.Backend{gate0, gate1} {
		if g.Composites() != 5 {
			t.Fatalf("shard %d saw %d composite calls, want 5", i, g.Composites())
		}
	}

	// Behind a serving front-end the same degradation must surface in
	// Stats — and because the epoch-vector sample contains an unknown
	// component while a shard is down, those requests bypass the cache
	// entirely instead of caching (or serving) unverifiable results.
	srv := serve.New(det, serve.DefaultConfig())
	for i := 0; i < 3; i++ {
		srv.Search("49ers")
	}
	st := srv.Stats()
	if st.PartialResults == 0 || st.ShardErrors == 0 {
		t.Fatalf("serve stats hide the degradation: %+v", st)
	}
	if st.Uncacheable != 3 {
		t.Fatalf("want 3 uncacheable requests while a shard is down, got %d", st.Uncacheable)
	}
	if st.CacheEntries != 0 {
		t.Fatalf("degraded requests were cached: %d entries", st.CacheEntries)
	}
	if len(st.EpochVector) != 2 || st.EpochVector[1] != core.EpochUnknown {
		t.Fatalf("epoch vector does not flag the dead shard: %v", st.EpochVector)
	}
}

// dieAfterScatter answers the composite scatter and then loses every
// connection it holds — the shard process dying between the two phases
// of one query, with the coordinator still holding its view.
type dieAfterScatter struct {
	shard.Backend
	conns *fault.Dialer
}

func (d dieAfterScatter) SearchStats(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate, stats []expertise.UserStats) ([]expertise.RawCandidate, int, []expertise.UserStats, shard.View, error) {
	rows, matched, rowStats, v, err := d.Backend.SearchStats(ctx, terms, extended, raw, stats)
	d.conns.KillAll()
	return rows, matched, rowStats, v, err
}

// TestShardDiesBetweenScatterAndTopUp kills one shard of two after its
// composite scatter answered and before the coordinator's top-up for
// the foreign candidates reaches it — on the query's first scatter and
// on the re-run a failed top-up buys. The shard is then missing from the
// result whole — its numerators without its denominators would skew
// every ratio — so the query counts one partial result and ranks
// exactly what the surviving shard's posts alone rank on a cold
// detector.
func TestShardDiesBetweenScatterAndTopUp(t *testing.T) {
	fault.CheckLeaks(t)
	p, sets := testPipeline(t)
	icfg := ingest.Config{SealThreshold: 32, CompactFanIn: 3}
	posts := streamPosts(p, 89, 300)

	idx0 := ingest.New(shard.Partition(p.Corpus, 0, 2), icfg)
	defer idx0.Close()
	idx1 := ingest.New(shard.Partition(p.Corpus, 1, 2), icfg)
	defer idx1.Close()
	srv, err := transport.Listen("127.0.0.1:0", idx1, transport.DefaultServerConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conns := fault.NewDialer()
	ccfg := testClientConfig()
	ccfg.Dial = conns.Dial
	remote := transport.NewRemoteShard(srv.Addr().String(), ccfg)
	defer remote.Close()
	gate := fault.Wrap(remote) // un-armed: counts the calls that reach the shard

	cluster := shard.NewCluster(p.World, shard.NewLocal(idx0), dieAfterScatter{gate, conns})
	if err := cluster.IngestBatch(posts); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Quiesce(); err != nil {
		t.Fatal(err)
	}
	det := core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)

	var survivors []microblog.Post
	for _, post := range posts {
		if shard.ShardOf(post.Author, 2) == 0 {
			survivors = append(survivors, post)
		}
	}
	cold := core.NewDetector(p.Collection, shard.Partition(p.Corpus, 0, 2).ExtendedWith(survivors), p.Cfg.Online)

	// Only a query whose candidates span both shards needs a top-up
	// from the dying one; the others it answers whole before it dies.
	queries, partials := 0, int64(0)
	for _, set := range sets {
		for _, q := range set.Queries {
			topUps := srv.Requests(transport.OpStats)
			got, trace := det.Search(q)
			queries++
			if srv.Requests(transport.OpStats) != topUps {
				t.Fatalf("%q: a top-up reached the dead shard", q)
			}
			pq, se := det.PartialStats()
			if pq == partials {
				continue
			}
			if pq != partials+1 || se != pq {
				t.Fatalf("%q: partial queries %d→%d, shard errors %d — want one of each per degraded query", q, partials, pq, se)
			}
			partials = pq
			want, wantTrace := cold.Search(q)
			expertsIdentical(t, "survivors-vs-cold", q, got, want)
			if trace.MatchedTweets != wantTrace.MatchedTweets {
				t.Fatalf("%q: matched %d tweets, the survivor alone matches %d", q, trace.MatchedTweets, wantTrace.MatchedTweets)
			}
		}
	}
	if partials == 0 {
		t.Fatal("no query needed a top-up from the dying shard")
	}
	// Every degraded query re-ran its scatter once, and no more.
	if gate.Composites() != int64(queries)+partials {
		t.Fatalf("dying shard saw %d composite calls over %d queries, %d of them re-run",
			gate.Composites(), queries, partials)
	}
}

// TestEpochSampleBackoff pins the fix for the ROADMAP dial-timeout
// hole: while a shard is down, the serving cache's per-request
// epoch-vector sample must cost at most one dial per backoff window —
// not one dial (and its timeout) per request. The dial count is the
// proof, mirroring PR 4's reconnect-once technique; the sample still
// reports EpochUnknown every time, so every request stays uncacheable
// while the shard is down.
func TestEpochSampleBackoff(t *testing.T) {
	p, _ := testPipeline(t)
	icfg := ingest.DefaultConfig()
	idx0 := ingest.New(shard.Partition(p.Corpus, 0, 2), icfg)
	defer idx0.Close()

	// A dead address that refuses dials instantly. RemoteShard.Dials
	// counts only *successful* dials, so count attempts in the dial
	// func itself.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()
	var dialAttempts int64
	cfg := transport.ClientConfig{
		Timeout: 200 * time.Millisecond,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			dialAttempts++
			return net.DialTimeout("tcp", addr, timeout)
		},
	}
	dead := transport.NewRemoteShard(deadAddr, cfg)
	defer dead.Close()

	cluster := shard.NewCluster(p.World, shard.NewLocal(idx0), dead)
	const window = 300 * time.Millisecond
	cluster.SetBackoff(shard.Backoff{Initial: window, Max: window})
	det := core.NewShardedLiveDetectorOver(p.Collection, cluster, p.Cfg.Online)
	srv := serve.New(det, serve.Config{CacheSize: 64})

	// A burst of epoch samples inside one window: exactly one dial.
	for i := 0; i < 16; i++ {
		vec, err := cluster.EpochVector(nil)
		if err == nil {
			t.Fatal("sampling a dead shard reported no error")
		}
		if len(vec) != 2 || vec[1] != shard.EpochUnknown {
			t.Fatalf("sample %d: vector %v does not flag the dead shard", i, vec)
		}
	}
	if dialAttempts != 1 {
		t.Fatalf("16 epoch samples inside one backoff window attempted %d dials, want 1", dialAttempts)
	}

	// The serving layer's per-request vector sample goes through the
	// same gate — still no extra dials. Stats() samples the vector
	// without scattering a query (a query's own scatter keeps its
	// fail-fast contract and is deliberately not gated here).
	for i := 0; i < 8; i++ {
		if st := srv.Stats(); len(st.EpochVector) != 2 || st.EpochVector[1] != core.EpochUnknown {
			t.Fatalf("serve stats sample %d: %v", i, st.EpochVector)
		}
	}
	if dialAttempts != 1 {
		t.Fatalf("8 serve-stats samples attempted %d total dials, want still 1", dialAttempts)
	}

	// After the window expires the sampler is granted exactly one fresh
	// probe.
	time.Sleep(window + 50*time.Millisecond)
	for i := 0; i < 8; i++ {
		cluster.EpochVector(nil)
	}
	if dialAttempts != 2 {
		t.Fatalf("samples after window expiry attempted %d total dials, want 2", dialAttempts)
	}
	if h := cluster.Health(1); h.Healthy() {
		t.Fatal("dead shard's health reports healthy")
	}
	if h := cluster.Health(0); !h.Healthy() {
		t.Fatal("live shard's health reports unhealthy")
	}
}

// TestWritesAreNeverRetried pins the idempotency rule: a write that
// fails on a stale pooled connection surfaces the error instead of
// being re-sent — the server may already have applied it, and a
// duplicate post would skew every counter the bit-identical bar is
// stated over. Reads reconnect; writes fail fast.
func TestWritesAreNeverRetried(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	addr := startOneServer(t, p, ingest.DefaultConfig())

	d := fault.NewDialer()
	cfg := testClientConfig()
	cfg.Dial = d.Dial
	c := transport.NewRemoteShard(addr, cfg)
	defer c.Close()

	// Info, not Epoch: Epoch would dedicate its connection to the push
	// reader and leave the pool empty, so the write below would never
	// see a stale pooled connection.
	if _, err := c.Info(); err != nil {
		t.Fatal(err)
	}
	d.KillAll()
	post := streamPosts(p, 103, 1)[0]
	if err := c.IngestBatch([]microblog.Post{post}); err == nil {
		t.Fatal("write on a dropped connection succeeded — it must have been silently retried")
	}
	if got := c.Dials(); got != 1 {
		t.Fatalf("failed write dialed a new connection (%d dials) — the retry path ran for a write", got)
	}
	// The read path on the now-empty pool reconnects and recovers.
	if _, err := c.Info(); err != nil {
		t.Fatalf("recovery read failed: %v", err)
	}
	if got := c.Dials(); got != 2 {
		t.Fatalf("recovery read dialed %d total conns, want 2", got)
	}
}

// TestRestartedServerIsRejected pins the incarnation check: when the
// shardd behind an address dies and a fresh one (same partition, fresh
// index, epoch back to zero) takes its place, the client must refuse to
// silently reconnect — pre-restart cache entries would otherwise look
// "fresh" forever against the regressed epoch vector. The failure
// surfaces as a backend error, which the coordinator degrades on.
func TestRestartedServerIsRejected(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	idx1 := ingest.New(shard.Partition(p.Corpus, 0, 1), ingest.DefaultConfig())
	defer idx1.Close()
	srv1, err := transport.Listen("127.0.0.1:0", idx1, transport.DefaultServerConfig(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr().String()

	c := transport.NewRemoteShard(addr, testClientConfig())
	defer c.Close()
	if err := c.Handshake(0, 1, len(p.World.Users), idx1.Base().NumTweets()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Epoch(); err != nil {
		t.Fatal(err)
	}

	// The process dies; a fresh one takes over the same address with the
	// same partition coordinates but a new incarnation (and none of the
	// ingested content).
	srv1.Close()
	idx2 := ingest.New(shard.Partition(p.Corpus, 0, 1), ingest.DefaultConfig())
	defer idx2.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2 := transport.Serve(ln2, idx2, transport.DefaultServerConfig(0, 1))
	defer srv2.Close()

	// The pooled/subscribed connection is dead; the next dial reaches
	// the impostor and the per-dial handshake must reject it. The
	// subscription lapse is asynchronous (its reader must observe the
	// close), so poll briefly: the cached epoch may answer until the
	// lapse lands, but the first *error* must be the incarnation check.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = c.Epoch()
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client silently reconnected to a restarted server")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(err.Error(), "restarted") {
		t.Fatalf("want an incarnation/restart error, got: %v", err)
	}
	// And it keeps failing (no lucky pooled state) until re-wired.
	if _, err := c.Epoch(); err == nil {
		t.Fatal("second request after restart succeeded")
	}
}
