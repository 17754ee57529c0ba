// Fault-injection tests for OpTweets paging — the frames DumpIngested
// reads a shard's ingested log over. The paging contract under chaos: a
// response truncated at ANY byte offset yields a clean error, never a
// silently short page (a dump that trusted one would feed the cold
// rebuild an incomplete log); one-byte fragmentation changes nothing;
// an empty shard and an exact page boundary both terminate the cursor
// loop without off-by-ones; and a client wired for another topology is
// refused at connect.
package transport_test

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/diskseg"
	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/world"
)

// countingConn counts inbound bytes so a test can learn exactly how
// many bytes a clean conversation reads, then truncate at every offset
// below that.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// postKey flattens a post into a comparable identity; Mentions makes
// microblog.Post itself non-comparable.
func postKey(p microblog.Post) string {
	return fmt.Sprintf("%d|%s|%d|%d|%v", p.Author, p.Text, p.Topic, p.RetweetCount, p.Mentions)
}

// pagingClient returns a client that never samples an epoch (so it
// never subscribes, and the inbound byte stream of one request is
// exactly one negotiate plus one response — deterministic and
// countable).
func pagingClient(addr string, dial func(string, time.Duration) (net.Conn, error)) *transport.RemoteShard {
	cfg := testClientConfig()
	cfg.Dial = dial
	return transport.NewRemoteShard(addr, cfg)
}

// logBase returns the shard's frozen base-corpus size: its ingested
// posts occupy ids from there to the log's end.
func logBase(t *testing.T, c *transport.RemoteShard) int {
	t.Helper()
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	return info.BaseTweets
}

// TestTweetsPageTruncatedAtEveryOffset is the headline fault case:
// measure the exact inbound byte count of one clean paged read, then
// rerun the identical request with the stream cut after every offset
// 0..N-1. Every cut must surface an error — no partial page ever
// decodes — and at offset N the full page comes back bit-identical.
func TestTweetsPageTruncatedAtEveryOffset(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	addr := startOneServer(t, p, ingest.DefaultConfig())

	loader := pagingClient(addr, nil)
	defer loader.Close()
	if err := loader.IngestBatch(streamPosts(p, 8301, 40)); err != nil {
		t.Fatal(err)
	}
	base := logBase(t, loader)

	var inbound atomic.Int64
	counted := pagingClient(addr, func(a string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", a, timeout)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, n: &inbound}, nil
	})
	defer counted.Close()
	want, err := counted.Tweets(base, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Posts) != 16 {
		t.Fatalf("reference page: %d posts, want 16", len(want.Posts))
	}
	total := int(inbound.Load())
	if total == 0 {
		t.Fatal("counting dialer saw no inbound bytes")
	}

	for off := 0; off < total; off++ {
		d := fault.NewDialer()
		d.TruncateNext(off)
		c := pagingClient(addr, d.Dial)
		page, err := c.Tweets(base, 16)
		c.Close()
		if err == nil {
			t.Fatalf("offset %d/%d: truncated response decoded into a page (%d posts)",
				off, total, len(page.Posts))
		}
	}

	// The stream cut exactly after the full conversation is not a fault.
	d := fault.NewDialer()
	d.TruncateNext(total)
	c := pagingClient(addr, d.Dial)
	defer c.Close()
	page, err := c.Tweets(base, 16)
	if err != nil {
		t.Fatalf("cut after %d bytes (the full response) failed: %v", total, err)
	}
	if page.Total != want.Total || len(page.Posts) != len(want.Posts) {
		t.Fatalf("page after exact-length cut: total %d posts %d, want %d/%d",
			page.Total, len(page.Posts), want.Total, len(want.Posts))
	}
	for i := range want.Posts {
		if postKey(page.Posts[i]) != postKey(want.Posts[i]) {
			t.Fatalf("post %d differs after exact-length cut", i)
		}
	}
}

// TestPagingFragmentedBitIdentical drains the whole ingested log over a
// connection delivering one byte per read/write and requires the exact
// pages a clean connection produces.
func TestPagingFragmentedBitIdentical(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	addr := startOneServer(t, p, ingest.DefaultConfig())

	clean := pagingClient(addr, nil)
	defer clean.Close()
	if err := clean.IngestBatch(streamPosts(p, 8302, 30)); err != nil {
		t.Fatal(err)
	}
	base := logBase(t, clean)

	d := fault.NewDialer()
	d.FragmentAll()
	frag := pagingClient(addr, d.Dial)
	defer frag.Close()

	drain := func(c *transport.RemoteShard) (posts []microblog.Post, pages []int) {
		at := base
		for {
			page, err := c.Tweets(at, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(page.Posts) == 0 {
				if at != page.Total {
					t.Fatalf("drain stopped at %d with total %d", at, page.Total)
				}
				return posts, pages
			}
			posts = append(posts, page.Posts...)
			pages = append(pages, len(page.Posts))
			at += len(page.Posts)
		}
	}
	wantPosts, wantPages := drain(clean)
	gotPosts, gotPages := drain(frag)
	if len(gotPosts) != len(wantPosts) || len(gotPages) != len(wantPages) {
		t.Fatalf("fragmented drain: %d posts %d pages, clean %d/%d",
			len(gotPosts), len(gotPages), len(wantPosts), len(wantPages))
	}
	for i := range wantPosts {
		if postKey(gotPosts[i]) != postKey(wantPosts[i]) {
			t.Fatalf("post %d differs over fragmented conn", i)
		}
	}
	for i := range wantPages {
		if gotPages[i] != wantPages[i] {
			t.Fatalf("page %d held %d posts over fragments, clean held %d", i, gotPages[i], wantPages[i])
		}
	}
}

// TestPagingEmptyShardAndBeyondEnd pins cursor-loop termination: a
// shard with nothing ingested answers the dump's first page with no
// posts (the loop's stop condition), and a cursor at or past the end of
// a non-empty log does the same instead of wrapping or erroring.
func TestPagingEmptyShardAndBeyondEnd(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	addr := startOneServer(t, p, ingest.DefaultConfig())
	c := pagingClient(addr, nil)
	defer c.Close()

	base := logBase(t, c)
	// Nothing ingested yet: the base boundary IS the log end.
	page, err := c.Tweets(base, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Posts) != 0 || page.Total != base {
		t.Fatalf("empty shard page: %d posts, total %d (base %d)", len(page.Posts), page.Total, base)
	}

	if err := c.IngestBatch(streamPosts(p, 8303, 12)); err != nil {
		t.Fatal(err)
	}
	for _, from := range []int{base + 12, base + 13, base + 500} {
		page, err := c.Tweets(from, 32)
		if err != nil {
			t.Fatalf("from %d: %v", from, err)
		}
		if len(page.Posts) != 0 {
			t.Fatalf("from %d past end: %d posts", from, len(page.Posts))
		}
		if page.Total != base+12 {
			t.Fatalf("from %d: total %d, want %d", from, page.Total, base+12)
		}
	}
	// A max<=0 probe reports the total without moving any posts.
	if page, err := c.Tweets(base, 0); err != nil || len(page.Posts) != 0 || page.Total != base+12 {
		t.Fatalf("zero-max probe: %d posts, total %d, err %v", len(page.Posts), page.Total, err)
	}
}

// TestPagingExactPageBoundary ingests exactly three full pages and
// walks them: every page must hold exactly the page size, the fourth
// must be empty (no off-by-one re-serving the last id, none skipped),
// and the concatenation must be the ingested sequence in order.
func TestPagingExactPageBoundary(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	addr := startOneServer(t, p, ingest.DefaultConfig())
	c := pagingClient(addr, nil)
	defer c.Close()

	const pageSize, pages = 8, 3
	sent := streamPosts(p, 8304, pageSize*pages)
	if err := c.IngestBatch(sent); err != nil {
		t.Fatal(err)
	}
	base := logBase(t, c)

	var got []microblog.Post
	at := base
	for i := 0; i < pages; i++ {
		page, err := c.Tweets(at, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Posts) != pageSize {
			t.Fatalf("page %d: %d posts, want exactly %d", i, len(page.Posts), pageSize)
		}
		if page.Total != base+len(sent) {
			t.Fatalf("page %d: total %d, want %d", i, page.Total, base+len(sent))
		}
		got = append(got, page.Posts...)
		at += len(page.Posts)
	}
	if page, err := c.Tweets(at, pageSize); err != nil || len(page.Posts) != 0 {
		t.Fatalf("page after exact boundary: %d posts, err %v", len(page.Posts), err)
	}
	for i := range sent {
		if postKey(got[i]) != postKey(sent[i]) {
			t.Fatalf("post %d out of order across exact page boundaries", i)
		}
	}
}

// TestMiswiredClientRejectedAtConnect pins the OpInfo world-size
// renegotiation: a client handshake-pinned to the old topology checks
// every fresh connection's OpInfo answer against it, and refuses a
// server now holding a different shard count — the client fails at
// connect instead of reading the wrong partition after a reshard.
func TestMiswiredClientRejectedAtConnect(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	part := shard.Partition(p.Corpus, 0, 2)
	idx := ingest.New(part, ingest.DefaultConfig())
	defer idx.Close()
	srv, err := transport.Listen("127.0.0.1:0", idx, transport.DefaultServerConfig(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()

	c := pagingClient(addr, nil)
	defer c.Close()
	if err := c.Handshake(0, 2, len(p.World.Users), part.NumTweets()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Info(); err != nil {
		t.Fatal(err)
	}

	// The deployment resharded 2→4: the same address now serves shard
	// 0 of 4 over the narrower partition.
	srv.Close()
	part4 := shard.Partition(p.Corpus, 0, 4)
	idx4 := ingest.New(part4, ingest.DefaultConfig())
	defer idx4.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv4 := transport.Serve(ln, idx4, transport.DefaultServerConfig(0, 4))
	defer srv4.Close()

	_, err = c.Info()
	if err == nil {
		t.Fatal("client pinned to 2 shards silently reconnected to a 4-shard server")
	}
	if !strings.Contains(err.Error(), "now serves shard 0/4") || !strings.Contains(err.Error(), "handshake pinned 0/2") {
		t.Fatalf("want the client's renegotiation refusal, got: %v", err)
	}
	if _, err := c.Info(); err == nil {
		t.Fatal("second request after reshard succeeded")
	}
}

// TestHostileFramesAnsweredNotFatal pins what a live server does with
// frames no client built from this tree sends: an OpStats with no
// search pinned before it, an OpTweets cursor past every int (it used
// to reach the page loop as -1 and kill the process), user ids outside
// the world in a pinned stats request and in a post, a retweet count
// the sealed-segment format cannot hold (a seal cannot leave the post
// out), a non-empty OpInfo request, and the retired op numbers 0x01
// (the two-step search), 0x04 (the epoch probe) and 0x10 (the
// compression envelope). Each is answered with OpError, nothing is
// ingested, and the same connection then serves an empty OpInfo request
// with exactly the seven InfoResp fields. The server is shard 0 of two,
// so a composite search pins the snapshot a stats request reads.
func TestHostileFramesAnsweredNotFatal(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	idx := ingest.New(shard.Partition(p.Corpus, 0, 2), ingest.DefaultConfig())
	defer idx.Close()
	srv, err := transport.Listen("127.0.0.1:0", idx, transport.DefaultServerConfig(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)

	outside := world.UserID(len(p.World.Users))
	postBy := func(post microblog.Post) []byte {
		return transport.AppendFrame(nil, transport.OpIngest,
			transport.AppendIngestReq(nil, transport.IngestReq{Posts: []microblog.Post{post}}))
	}
	searchReq := transport.AppendSearchReq(nil, transport.SearchReq{Terms: []string{"49ers"}})
	statsFor := func(users ...world.UserID) []byte {
		return transport.AppendFrame(nil, transport.OpStats, transport.AppendUserIDs(nil, users))
	}
	type hostileFrame struct {
		name   string
		pinned bool // sent right after a composite search that pins
		frame  []byte
	}
	hostile := []hostileFrame{
		// First, while the connection has never searched.
		{name: "stats with no pinned search", frame: statsFor(3, 5)},
		{name: "tweets cursor 2^64-1", frame: transport.AppendFrame(nil, transport.OpTweets,
			binary.AppendUvarint(binary.AppendUvarint(nil, math.MaxUint64), 16))},
		{name: "stats for an unknown user", pinned: true, frame: statsFor(3, outside)},
		{name: "stats for a duplicated user", pinned: true, frame: statsFor(3, 3)},
		{name: "stats for a descending list", pinned: true, frame: statsFor(5, 3)},
		{name: "post by an unknown user", frame: postBy(microblog.Post{Author: outside, Text: "49ers"})},
		{name: "post mentioning an unknown user", frame: postBy(microblog.Post{Author: 1, Text: "49ers", Mentions: []world.UserID{outside}})},
		{name: "post with a negative retweet count", frame: postBy(microblog.Post{Author: 1, Text: "49ers", RetweetCount: -1})},
		{name: "info request with expectations", frame: transport.AppendFrame(nil, transport.OpInfo, []byte{0, 2, 7, 9})},
		{name: "retired op 0x01", frame: transport.AppendFrame(nil, transport.Op(0x01), searchReq)},
		{name: "retired op 0x04", frame: transport.AppendFrame(nil, transport.Op(0x04), nil)},
		{name: "retired op 0x10", frame: transport.AppendFrame(nil, transport.Op(0x10), []byte{byte(transport.OpInfo), 1, 0})},
	}
	var buf []byte
	if big := int64(diskseg.MaxRetweetCount) + 1; int64(int(big)) == big {
		hostile = append(hostile, hostileFrame{name: "post with a retweet count past 32 bits",
			frame: postBy(microblog.Post{Author: 1, Text: "49ers", RetweetCount: int(big)})})
	}
	for _, h := range hostile {
		var op transport.Op
		if h.pinned {
			if _, err := conn.Write(transport.AppendFrame(nil, transport.OpSearchStats, searchReq)); err != nil {
				t.Fatalf("%s: write search: %v", h.name, err)
			}
			if op, _, buf, err = transport.ReadFrame(br, buf); err != nil || op != transport.OpSearchStats {
				t.Fatalf("%s: pinning search got op 0x%02x (err %v)", h.name, byte(op), err)
			}
		}
		if _, err := conn.Write(h.frame); err != nil {
			t.Fatalf("%s: write: %v", h.name, err)
		}
		op, _, buf, err = transport.ReadFrame(br, buf)
		if err != nil || op != transport.OpError {
			t.Fatalf("%s: got op 0x%02x (err %v), want OpError", h.name, byte(op), err)
		}
	}
	if got := idx.Stats().Ingested; got != 0 {
		t.Fatalf("rejected posts were ingested: %d", got)
	}

	if _, err := conn.Write(transport.AppendFrame(nil, transport.OpInfo, nil)); err != nil {
		t.Fatal(err)
	}
	op, payload, _, err := transport.ReadFrame(br, buf)
	if err != nil || op != transport.OpInfo {
		t.Fatalf("info after hostile frames: op 0x%02x, err %v", byte(op), err)
	}
	info, rest, err := transport.ConsumeInfoResp(payload)
	if err != nil || len(rest) != 0 || info.NumShards != 2 || info.Users != len(p.World.Users) {
		t.Fatalf("info after hostile frames: %+v, %d trailing bytes, err %v", info, len(rest), err)
	}
}
