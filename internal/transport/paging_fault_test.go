// Fault-injection tests for OpTweets paging — the frames the resharding
// handoff streams author logs over. The paging contract under chaos: a
// response truncated at ANY byte offset yields a clean error, never a
// silently short page (a drain that trusted one would hand the
// destination an incomplete author log and break bit-identical
// cutover); one-byte fragmentation changes nothing; an empty shard and
// an exact page boundary both terminate the cursor loop without
// off-by-ones; server-side filtering partitions the log exactly; and a
// client wired for the old topology is refused at connect.
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
	"repro/internal/expertise"
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
	base, err := loader.BasePosts()
	if err != nil {
		t.Fatal(err)
	}

	var inbound atomic.Int64
	counted := pagingClient(addr, func(a string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", a, timeout)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, n: &inbound}, nil
	})
	defer counted.Close()
	wantPosts, wantScanned, wantTotal, err := counted.PagePosts(base, 16, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wantScanned != 16 || len(wantPosts) != 16 {
		t.Fatalf("reference page: scanned %d, %d posts, want 16/16", wantScanned, len(wantPosts))
	}
	total := int(inbound.Load())
	if total == 0 {
		t.Fatal("counting dialer saw no inbound bytes")
	}

	for off := 0; off < total; off++ {
		d := fault.NewDialer()
		d.TruncateNext(off)
		c := pagingClient(addr, d.Dial)
		posts, scanned, _, err := c.PagePosts(base, 16, 0, 0)
		c.Close()
		if err == nil {
			t.Fatalf("offset %d/%d: truncated response decoded into a page (%d posts, scanned %d)",
				off, total, len(posts), scanned)
		}
	}

	// The stream cut exactly after the full conversation is not a fault.
	d := fault.NewDialer()
	d.TruncateNext(total)
	c := pagingClient(addr, d.Dial)
	defer c.Close()
	posts, scanned, pageTotal, err := c.PagePosts(base, 16, 0, 0)
	if err != nil {
		t.Fatalf("cut after %d bytes (the full response) failed: %v", total, err)
	}
	if scanned != wantScanned || pageTotal != wantTotal || len(posts) != len(wantPosts) {
		t.Fatalf("page after exact-length cut: scanned %d total %d posts %d, want %d/%d/%d",
			scanned, pageTotal, len(posts), wantScanned, wantTotal, len(wantPosts))
	}
	for i := range wantPosts {
		if postKey(posts[i]) != postKey(wantPosts[i]) {
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
	base, err := clean.BasePosts()
	if err != nil {
		t.Fatal(err)
	}

	d := fault.NewDialer()
	d.FragmentAll()
	frag := pagingClient(addr, d.Dial)
	defer frag.Close()

	drain := func(c *transport.RemoteShard) (posts []microblog.Post, pages []int) {
		at := base
		for {
			page, scanned, total, err := c.PagePosts(at, 7, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if scanned == 0 {
				if at != total {
					t.Fatalf("drain stopped at %d with total %d", at, total)
				}
				return posts, pages
			}
			posts = append(posts, page...)
			pages = append(pages, scanned)
			at += scanned
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
			t.Fatalf("page %d scanned %d over fragments, clean scanned %d", i, gotPages[i], wantPages[i])
		}
	}
}

// TestPagingEmptyShardAndBeyondEnd pins cursor-loop termination: a
// shard with nothing ingested answers the drain's first page with
// scanned == 0 (the loop's stop condition), and a cursor at or past the
// end of a non-empty log does the same instead of wrapping or erroring.
func TestPagingEmptyShardAndBeyondEnd(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	addr := startOneServer(t, p, ingest.DefaultConfig())
	c := pagingClient(addr, nil)
	defer c.Close()

	base, err := c.BasePosts()
	if err != nil {
		t.Fatal(err)
	}
	// Nothing ingested yet: the drain floor IS the log end.
	posts, scanned, total, err := c.PagePosts(base, 32, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if scanned != 0 || len(posts) != 0 || total != base {
		t.Fatalf("empty shard page: scanned %d, %d posts, total %d (base %d)", scanned, len(posts), total, base)
	}

	if err := c.IngestBatch(streamPosts(p, 8303, 12)); err != nil {
		t.Fatal(err)
	}
	for _, from := range []int{base + 12, base + 13, base + 500} {
		posts, scanned, total, err := c.PagePosts(from, 32, 0, 0)
		if err != nil {
			t.Fatalf("from %d: %v", from, err)
		}
		if scanned != 0 || len(posts) != 0 {
			t.Fatalf("from %d past end: scanned %d, %d posts", from, scanned, len(posts))
		}
		if total != base+12 {
			t.Fatalf("from %d: total %d, want %d", from, total, base+12)
		}
	}
	// A max<=0 probe reports the total without moving any posts.
	if posts, scanned, total, err := c.PagePosts(base, 0, 0, 0); err != nil || scanned != 0 || len(posts) != 0 || total != base+12 {
		t.Fatalf("zero-max probe: %d posts, scanned %d, total %d, err %v", len(posts), scanned, total, err)
	}
}

// TestPagingExactPageBoundary ingests exactly three full pages and
// walks them: every page must scan exactly the page size, the fourth
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
	base, err := c.BasePosts()
	if err != nil {
		t.Fatal(err)
	}

	var got []microblog.Post
	at := base
	for i := 0; i < pages; i++ {
		page, scanned, total, err := c.PagePosts(at, pageSize, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if scanned != pageSize || len(page) != pageSize {
			t.Fatalf("page %d: scanned %d, %d posts, want exactly %d", i, scanned, len(page), pageSize)
		}
		if total != base+len(sent) {
			t.Fatalf("page %d: total %d, want %d", i, total, base+len(sent))
		}
		got = append(got, page...)
		at += scanned
	}
	if _, scanned, _, err := c.PagePosts(at, pageSize, 0, 0); err != nil || scanned != 0 {
		t.Fatalf("page after exact boundary: scanned %d, err %v", scanned, err)
	}
	for i := range sent {
		if postKey(got[i]) != postKey(sent[i]) {
			t.Fatalf("post %d out of order across exact page boundaries", i)
		}
	}
}

// TestFilteredPagingPartitionsLog pins the server-side handoff filter:
// paging the same range once per destination index must hand every post
// to exactly the index its author hashes to, scan the full range each
// pass (the cursor advances by scanned ids, not returned posts), and
// reassemble the complete ingested multiset with nothing duplicated.
func TestFilteredPagingPartitionsLog(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	addr := startOneServer(t, p, ingest.DefaultConfig())
	c := pagingClient(addr, nil)
	defer c.Close()

	sent := streamPosts(p, 8305, 60)
	if err := c.IngestBatch(sent); err != nil {
		t.Fatal(err)
	}
	base, err := c.BasePosts()
	if err != nil {
		t.Fatal(err)
	}

	const fs = 4
	union := map[string]int{}
	for idx := 0; idx < fs; idx++ {
		at, scannedSum := base, 0
		for {
			page, scanned, total, err := c.PagePosts(at, 16, fs, idx)
			if err != nil {
				t.Fatal(err)
			}
			if scanned == 0 {
				if at != total {
					t.Fatalf("idx %d: filtered drain stopped at %d, total %d", idx, at, total)
				}
				break
			}
			for _, post := range page {
				if shard.ShardOf(world.UserID(post.Author), fs) != idx {
					t.Fatalf("idx %d received a post whose author hashes to %d",
						idx, shard.ShardOf(world.UserID(post.Author), fs))
				}
				union[postKey(post)]++
			}
			scannedSum += scanned
			at += scanned
		}
		if scannedSum != len(sent) {
			t.Fatalf("idx %d scanned %d ids, want the full %d-post range", idx, scannedSum, len(sent))
		}
	}
	want := map[string]int{}
	for _, post := range sent {
		want[postKey(post)]++
	}
	if len(union) != len(want) {
		t.Fatalf("filtered union has %d distinct posts, ingested %d", len(union), len(want))
	}
	for k, n := range want {
		if union[k] != n {
			t.Fatalf("post %q count %d across filters, ingested %d times", k, union[k], n)
		}
	}
}

// TestMiswiredClientRejectedAtConnect pins the OpInfo world-size
// renegotiation: a client handshake-pinned to the old topology restates
// its coordinates on every fresh connect, and a server now holding a
// different shard count refuses the OpInfo — the client fails at
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
	if !strings.Contains(err.Error(), "resharded?") {
		t.Fatalf("want the server-side renegotiation refusal, got: %v", err)
	}
	if _, err := c.Info(); err == nil {
		t.Fatal("second request after reshard succeeded")
	}
}

// TestHostileFramesAnsweredNotFatal pins what a live server does with
// frames no client built from this tree sends: an OpTweets cursor past
// every int (it used to reach the page loop as -1 and kill the
// process), user ids outside the world in a stats request and in a
// post, a retweet count the sealed-segment format cannot hold (a seal
// cannot leave the post out), and the retired op numbers 0x04 (the epoch probe) and 0x10 (the
// compression envelope). Each is answered with OpError, nothing is
// ingested, and the same connection then serves an empty OpInfo request
// with exactly the seven InfoResp fields.
func TestHostileFramesAnsweredNotFatal(t *testing.T) {
	fault.CheckLeaks(t)
	p, _ := testPipeline(t)
	idx := ingest.New(shard.Partition(p.Corpus, 0, 1), ingest.DefaultConfig())
	defer idx.Close()
	srv, err := transport.Listen("127.0.0.1:0", idx, transport.DefaultServerConfig(0, 1))
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
	hostile := []struct {
		name  string
		frame []byte
	}{
		{"tweets cursor 2^64-1", transport.AppendFrame(nil, transport.OpTweets,
			binary.AppendUvarint(binary.AppendUvarint(nil, math.MaxUint64), 16))},
		{"stats for an unknown user", transport.AppendFrame(nil, transport.OpStats,
			expertise.AppendUserIDs(nil, []world.UserID{3, outside}))},
		{"post by an unknown user", postBy(microblog.Post{Author: outside, Text: "49ers"})},
		{"post mentioning an unknown user", postBy(microblog.Post{Author: 1, Text: "49ers", Mentions: []world.UserID{outside}})},
		{"post with a negative retweet count", postBy(microblog.Post{Author: 1, Text: "49ers", RetweetCount: -1})},
		{"retired op 0x04", transport.AppendFrame(nil, transport.Op(0x04), nil)},
		{"retired op 0x10", transport.AppendFrame(nil, transport.Op(0x10), []byte{byte(transport.OpInfo), 1, 0})},
	}
	var buf []byte
	if big := int64(diskseg.MaxRetweetCount) + 1; int64(int(big)) == big {
		hostile = append(hostile, struct {
			name  string
			frame []byte
		}{"post with a retweet count past 32 bits", postBy(microblog.Post{Author: 1, Text: "49ers", RetweetCount: int(big)})})
	}
	for _, h := range hostile {
		if _, err := conn.Write(h.frame); err != nil {
			t.Fatalf("%s: write: %v", h.name, err)
		}
		var op transport.Op
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
	if err != nil || len(rest) != 0 || info.NumShards != 1 || info.Users != len(p.World.Users) {
		t.Fatalf("info after hostile frames: %+v, %d trailing bytes, err %v", info, len(rest), err)
	}
}
