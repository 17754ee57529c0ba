// Native fuzzing of the wire codec and of the server acting on what it
// decodes. The decoders' contract against adversarial bytes is: never
// panic, never allocate past the data actually present, and accept
// exactly what the encoders produce. FuzzDecodeFrame decodes a frame and
// every payload interpretation, and whenever a decode succeeds it
// re-encodes and re-decodes, requiring a fixed point — so the corpus
// explores both rejection paths and round-trip identity. FuzzDispatch
// feeds frame sequences to the server's request handling over a real
// shard. `make fuzz-smoke` runs both briefly in CI; longer local runs
// just raise -fuzztime.
package transport_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/expertise"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/world"
)

// seedFrames returns one valid encoded frame per op, so the fuzzer
// starts from the accepting region of every decoder.
func seedFrames() [][]byte {
	rows := []expertise.RawCandidate{
		{User: 3, Tweets: 2, Mentions: 1, Retweets: 4, Hashtagged: 0},
		{User: 17, Tweets: 1, Mentions: 0, Retweets: 0, Hashtagged: 1},
	}
	stats := []expertise.UserStats{{Tweets: 9, Mentions: 2, Retweets: 30}, {Tweets: 1}}
	posts := []microblog.Post{
		{Author: 5, Text: "really 49ers vibes", RetweetCount: 2, Topic: 1},
		{Author: 9, Text: "@u7 great takes on nfl", Mentions: []world.UserID{7}, Topic: -1},
	}
	var frames [][]byte
	frames = append(frames,
		transport.AppendFrame(nil, transport.OpSearchStats,
			transport.AppendSearchReq(nil, transport.SearchReq{Extended: true, Terms: []string{"49ers", "nfl"}})),
		transport.AppendFrame(nil, transport.OpSearchStats,
			transport.AppendSearchStatsResp(nil, transport.SearchStatsResp{Matched: 12, Rows: rows, Stats: stats})),
		transport.AppendFrame(nil, transport.OpStats,
			transport.AppendUserIDs(nil, []world.UserID{3, 17, 40})),
		transport.AppendFrame(nil, transport.OpStats,
			transport.AppendUserStats(nil, stats)),
		transport.AppendFrame(nil, transport.OpIngest,
			transport.AppendIngestReq(nil, transport.IngestReq{Posts: posts})),
		transport.AppendFrame(nil, transport.OpIngest,
			transport.AppendIngestResp(nil, transport.IngestResp{First: 1042, Count: 2})),
		transport.AppendFrame(nil, transport.OpQuiesce, nil),
		transport.AppendFrame(nil, transport.OpInfo,
			transport.AppendInfoResp(nil, transport.InfoResp{Shard: 1, NumShards: 4, Users: 600, BaseTweets: 2500, NumTweets: 2700, Epoch: 7})),
		transport.AppendFrame(nil, transport.OpTweets,
			transport.AppendTweetsReq(nil, transport.TweetsReq{From: 2500, Max: 128})),
		transport.AppendFrame(nil, transport.OpTweets,
			transport.AppendTweetsResp(nil, transport.TweetsResp{Total: 2700, Posts: posts})),
		transport.AppendFrame(nil, transport.OpSubscribe, nil),
		transport.AppendFrame(nil, transport.OpSubscribe,
			transport.AppendEpochResp(nil, transport.EpochResp{Epoch: 41})),
		transport.AppendFrame(nil, transport.OpEpochDelta,
			transport.AppendEpochResp(nil, transport.EpochResp{Epoch: 42})),
		transport.AppendFrame(nil, transport.OpSearchStats,
			transport.AppendSearchReq(nil, transport.SearchReq{Terms: []string{"49ers"}})),
		transport.AppendFrame(nil, transport.OpUnpin, nil),
		transport.AppendFrame(nil, transport.OpInfo, nil),
		// A mid-log page request and a one-post page.
		transport.AppendFrame(nil, transport.OpTweets,
			transport.AppendTweetsReq(nil, transport.TweetsReq{From: 2564, Max: 64})),
		transport.AppendFrame(nil, transport.OpTweets,
			transport.AppendTweetsResp(nil, transport.TweetsResp{Total: 2700, Posts: posts[:1]})),
		// The largest page cursor the decoder accepts: one past it no
		// longer fits an int.
		transport.AppendFrame(nil, transport.OpTweets,
			transport.AppendTweetsReq(nil, transport.TweetsReq{From: math.MaxInt, Max: 16})),
	)
	return frames
}

// referenceSearchReq is the independent decode ConsumeSearchReq is held
// to: the plain one-string-per-term reading of the format.
func referenceSearchReq(buf []byte) (extended bool, terms []string, ok bool) {
	if len(buf) == 0 {
		return false, nil, false
	}
	extended, buf = buf[0] != 0, buf[1:]
	n, w := binary.Uvarint(buf)
	if w <= 0 || n > uint64(len(buf)-w) {
		return false, nil, false
	}
	buf = buf[w:]
	for ; n > 0; n-- {
		l, w := binary.Uvarint(buf)
		if w <= 0 || l > uint64(len(buf)-w) {
			return false, nil, false
		}
		terms = append(terms, string(buf[w:w+int(l)]))
		buf = buf[w+int(l):]
	}
	return extended, terms, true
}

// checkSearchReq drives the scratch-taking ConsumeSearchReq over one
// payload: it must accept exactly what the reference decode accepts,
// produce the same terms into reused scratch without keeping any stale
// entry, hold no more than the bytes present, own its terms (the frame
// buffer is overwritten afterwards, as a connection's next read does)
// and round-trip through the encoder.
func checkSearchReq(t *testing.T, payload []byte) {
	frame := bytes.Clone(payload) // the fuzz engine's bytes must not be modified
	extended, want, ok := referenceSearchReq(frame)
	req, _, err := transport.ConsumeSearchReq([]string{"stale", "scratch"}, frame)
	if (err == nil) != ok {
		t.Fatalf("search req: decode err %v, reference accepts %v", err, ok)
	}
	if err != nil {
		return
	}
	for i := range frame {
		frame[i] = 0xff
	}
	if req.Extended != extended || !slices.Equal(req.Terms, want) {
		t.Fatalf("search req: got %v %q, reference %v %q", req.Extended, req.Terms, extended, want)
	}
	held := 0
	for _, term := range req.Terms {
		held += len(term)
	}
	if len(req.Terms) > len(payload) || held > len(payload) {
		t.Fatalf("search req: %d terms holding %d bytes from a %d-byte payload", len(req.Terms), held, len(payload))
	}
	again, _, err := transport.ConsumeSearchReq(nil, transport.AppendSearchReq(nil, req))
	if err != nil || again.Extended != req.Extended || !slices.Equal(again.Terms, req.Terms) {
		t.Fatalf("search req round trip: %+v vs %+v (%v)", again, req, err)
	}
}

// FuzzDecodeFrame is the adversarial-input bar of the satellite task:
// DecodeFrame plus every payload decoder, driven by arbitrary bytes,
// must neither panic nor over-allocate, and every successful decode
// must round-trip through its encoder to an identical re-decode.
func FuzzDecodeFrame(f *testing.F) {
	for _, frame := range seedFrames() {
		f.Add(frame)
	}
	// Truncations and corruptions of a valid frame probe the rejection
	// boundary precisely.
	whole := seedFrames()[1]
	for cut := 0; cut < len(whole); cut += 3 {
		f.Add(whole[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		op, payload, rest, err := transport.DecodeFrame(data)
		if err != nil {
			return
		}
		if len(payload)+len(rest)+5 != len(data) {
			t.Fatalf("frame accounting: %d payload + %d rest from %d input", len(payload), len(rest), len(data))
		}
		_ = op
		// Try every payload interpretation; the op byte is
		// fuzzer-controlled so it proves nothing about which decoder the
		// bytes were meant for.
		checkSearchReq(t, payload)
		if req, _, err := transport.ConsumeIngestReq(payload); err == nil {
			enc := transport.AppendIngestReq(nil, req)
			again, _, err := transport.ConsumeIngestReq(enc)
			if err != nil || len(again.Posts) != len(req.Posts) {
				t.Fatalf("ingest req round trip: %d posts vs %d (%v)", len(again.Posts), len(req.Posts), err)
			}
		}
		if req, _, err := transport.ConsumeTweetsReq(payload); err == nil {
			enc := transport.AppendTweetsReq(nil, req)
			again, _, err := transport.ConsumeTweetsReq(enc)
			if err != nil || again != req {
				t.Fatalf("tweets req round trip: %+v vs %+v (%v)", again, req, err)
			}
		}
		if resp, _, err := transport.ConsumeTweetsResp(payload); err == nil {
			enc := transport.AppendTweetsResp(nil, resp)
			again, _, err := transport.ConsumeTweetsResp(enc)
			if err != nil || again.Total != resp.Total || len(again.Posts) != len(resp.Posts) {
				t.Fatalf("tweets resp round trip: %+v vs %+v (%v)", again, resp, err)
			}
		}
		if info, _, err := transport.ConsumeInfoResp(payload); err == nil {
			again, _, err := transport.ConsumeInfoResp(transport.AppendInfoResp(nil, info))
			if err != nil || again != info {
				t.Fatalf("info round trip: %+v vs %+v (%v)", again, info, err)
			}
		}
		if resp, _, err := transport.ConsumeSearchStatsResp(nil, nil, payload); err == nil {
			enc := transport.AppendSearchStatsResp(nil, resp)
			again, _, err := transport.ConsumeSearchStatsResp(nil, nil, enc)
			if err != nil || again.Matched != resp.Matched || len(again.Rows) != len(resp.Rows) || len(again.Stats) != len(resp.Stats) {
				t.Fatalf("search+stats resp round trip: %+v vs %+v (%v)", again, resp, err)
			}
			for i := range resp.Rows {
				if again.Rows[i] != resp.Rows[i] || again.Stats[i] != resp.Stats[i] {
					t.Fatalf("search+stats row %d round trip", i)
				}
			}
		}
		if ids, _, err := transport.ConsumeUserIDs(nil, payload); err == nil && len(ids) > 0 {
			// User ids travel delta-compressed; ascending inputs (the
			// only ones the protocol produces) must round-trip exactly.
			ascending := true
			for i := 1; i < len(ids); i++ {
				if ids[i] < ids[i-1] {
					ascending = false
					break
				}
			}
			if ascending {
				again, _, err := transport.ConsumeUserIDs(nil, transport.AppendUserIDs(nil, ids))
				if err != nil || len(again) != len(ids) {
					t.Fatalf("user ids round trip: %v vs %v (%v)", again, ids, err)
				}
			}
		}
		if stats, _, err := transport.ConsumeUserStats(nil, payload); err == nil {
			again, _, err := transport.ConsumeUserStats(nil, transport.AppendUserStats(nil, stats))
			if err != nil || len(again) != len(stats) {
				t.Fatalf("user stats round trip: %d vs %d (%v)", len(again), len(stats), err)
			}
		}
	})
}

// TestDecodeFrameRejectsHostileLengths pins the over-allocation guard
// outside the fuzzer: a length prefix beyond MaxFrame, or a count field
// beyond the payload, must fail before any proportional allocation.
func TestDecodeFrameRejectsHostileLengths(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, byte(transport.OpSearchStats)}
	if _, _, _, err := transport.DecodeFrame(huge); err == nil {
		t.Fatal("4 GiB length prefix accepted")
	}
	// A search response claiming 2^40 candidate rows in a 3-byte body.
	payload := []byte{0x00}                                       // matched = 0
	payload = append(payload, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01) // count uvarint = 2^35
	if _, _, err := transport.ConsumeSearchStatsResp(nil, nil, payload); err == nil {
		t.Fatal("absurd row count accepted")
	}
	var roundTripped bytes.Buffer
	frame := transport.AppendFrame(nil, transport.OpQuiesce, transport.AppendEpochResp(nil, transport.EpochResp{Epoch: 5}))
	roundTripped.Write(frame)
	op, pl, buf, err := transport.ReadFrame(&roundTripped, nil)
	if err != nil || op != transport.OpQuiesce {
		t.Fatalf("ReadFrame: op %v err %v", op, err)
	}
	_ = buf
	if resp, _, err := transport.ConsumeEpochResp(pl); err != nil || resp.Epoch != 5 {
		t.Fatalf("epoch round trip through ReadFrame: %+v %v", resp, err)
	}
	// Truncated stream: header promises more than arrives.
	var short bytes.Buffer
	short.Write(frame[:len(frame)-1])
	if _, _, _, err := transport.ReadFrame(&short, nil); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// FuzzDispatch is the handler-level bar: an arbitrary sequence of
// request frames, dispatched in order over one connection to a server
// backed by a small real shard (sealing every 4 posts, compacting),
// must never panic, and every reply must be OpError or the request's
// own op carrying a payload that op's decoder consumes exactly —
// except OpUnpin, which gets no reply.
func FuzzDispatch(f *testing.F) {
	p, _ := testPipeline(f)
	base := shard.Partition(p.Corpus, 0, 2)
	for _, frame := range seedFrames() {
		f.Add(frame)
	}
	// The frame that used to kill a shardd: a page cursor past every int.
	f.Add(transport.AppendFrame(nil, transport.OpTweets,
		binary.AppendUvarint(binary.AppendUvarint(nil, math.MaxUint64), 16)))
	// A pinned-view conversation: composite search, top-up stats, unpin.
	f.Add(slices.Concat(
		transport.AppendFrame(nil, transport.OpSearchStats,
			transport.AppendSearchReq(nil, transport.SearchReq{Terms: []string{"49ers", "nfl"}})),
		transport.AppendFrame(nil, transport.OpStats,
			transport.AppendUserIDs(nil, []world.UserID{3, 17, 40})),
		transport.AppendFrame(nil, transport.OpUnpin, nil),
	))
	// The same conversation whose top-up repeats a user and then goes
	// backwards: both must be refused, not counted.
	f.Add(slices.Concat(
		transport.AppendFrame(nil, transport.OpSearchStats,
			transport.AppendSearchReq(nil, transport.SearchReq{Terms: []string{"49ers"}})),
		transport.AppendFrame(nil, transport.OpStats,
			transport.AppendUserIDs(nil, []world.UserID{3, 3, 40})),
		transport.AppendFrame(nil, transport.OpStats,
			transport.AppendUserIDs(nil, []world.UserID{40, 17})),
	))
	// The retired two-step search (0x01) and an OpInfo request carrying
	// the retired identity expectations: both must be refused, and the
	// connection must go on answering.
	f.Add(slices.Concat(
		transport.AppendFrame(nil, transport.Op(0x01),
			transport.AppendSearchReq(nil, transport.SearchReq{Terms: []string{"49ers"}})),
		transport.AppendFrame(nil, transport.OpInfo, nil),
	))
	f.Add(slices.Concat(
		transport.AppendFrame(nil, transport.OpInfo,
			binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 4), 600), 2500)),
		transport.AppendFrame(nil, transport.OpInfo, nil),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		idx := ingest.New(base, ingest.Config{SealThreshold: 4, CompactFanIn: 2})
		defer idx.Close()
		c := transport.NewDispatchConn(idx, transport.DefaultServerConfig(0, 2))
		defer c.Close()
		for {
			op, payload, rest, err := transport.DecodeFrame(data)
			if err != nil {
				return
			}
			data = rest
			respOp, resp := c.Request(op, payload)
			if err := checkReply(op, respOp, resp); err != nil {
				t.Fatalf("request op 0x%02x (%d-byte payload): %v", byte(op), len(payload), err)
			}
			if op == transport.OpStats && respOp != transport.OpError && !strictlyAscending(payload) {
				t.Fatalf("stats for a user list that is not strictly ascending answered with counts")
			}
		}
	})
}

// strictlyAscending reports whether an OpStats payload decodes to a
// strictly ascending user list (an undecodable one counts as not).
func strictlyAscending(payload []byte) bool {
	users, _, err := transport.ConsumeUserIDs(nil, payload)
	if err != nil {
		return false
	}
	for i := 1; i < len(users); i++ {
		if users[i] <= users[i-1] {
			return false
		}
	}
	return true
}

// checkReply holds one dispatched request's reply to the protocol.
func checkReply(op, respOp transport.Op, resp []byte) error {
	switch {
	case respOp == transport.OpError:
		return nil
	case op == transport.OpUnpin:
		if respOp != 0 {
			return fmt.Errorf("fire-and-forget unpin answered with op 0x%02x", byte(respOp))
		}
		return nil
	case respOp != op:
		return fmt.Errorf("answered with op 0x%02x", byte(respOp))
	}
	var rest []byte
	var err error
	switch op {
	case transport.OpSearchStats:
		_, rest, err = transport.ConsumeSearchStatsResp(nil, nil, resp)
	case transport.OpStats:
		_, rest, err = transport.ConsumeUserStats(nil, resp)
	case transport.OpIngest:
		_, rest, err = transport.ConsumeIngestResp(resp)
	case transport.OpQuiesce, transport.OpSubscribe:
		_, rest, err = transport.ConsumeEpochResp(resp)
	case transport.OpInfo:
		_, rest, err = transport.ConsumeInfoResp(resp)
	case transport.OpTweets:
		_, rest, err = transport.ConsumeTweetsResp(resp)
	default:
		return fmt.Errorf("a non-request op was answered as itself")
	}
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("%d bytes trail the response", len(rest))
	}
	return err
}

// TestTweetsReqRejectsIntOverflow pins the cursor guard at the codec: a
// From or Max that does not fit an int is a decode error, while the
// largest int still decodes.
func TestTweetsReqRejectsIntOverflow(t *testing.T) {
	for field := 0; field < 2; field++ {
		for _, v := range []uint64{math.MaxInt + 1, math.MaxUint64} {
			vals := []uint64{2500, 64}
			vals[field] = v
			var payload []byte
			for _, x := range vals {
				payload = binary.AppendUvarint(payload, x)
			}
			if req, _, err := transport.ConsumeTweetsReq(payload); err == nil {
				t.Fatalf("field %d = %d decoded as %+v", field, v, req)
			}
		}
	}
	req := transport.TweetsReq{From: math.MaxInt, Max: math.MaxInt}
	if got, _, err := transport.ConsumeTweetsReq(transport.AppendTweetsReq(nil, req)); err != nil || got != req {
		t.Fatalf("largest ints: %+v, %v", got, err)
	}
}

// TestInfoAndTweetsWireShapes pins the shapes the info and page codecs
// accept: an InfoResp is exactly seven fields (an eighth is left
// unread), a TweetsReq is exactly its cursor and cap (a third field is
// left unread), and a TweetsResp ends after its posts (one cut short is
// refused). The OpInfo request is empty; a server refuses any other
// (TestHostileFramesAnsweredNotFatal).
func TestInfoAndTweetsWireShapes(t *testing.T) {
	info := transport.InfoResp{Shard: 1, NumShards: 4, Users: 600, BaseTweets: 2500, NumTweets: 2700, Epoch: 7, Incarnation: 9}
	eight := binary.AppendUvarint(transport.AppendInfoResp(nil, info), 1)
	if got, rest, err := transport.ConsumeInfoResp(eight); err != nil || got != info || len(rest) != 1 {
		t.Fatalf("info resp with an eighth field: %+v, %d bytes left, %v", got, len(rest), err)
	}

	tweetsReq := transport.TweetsReq{From: 2500, Max: 64}
	three := binary.AppendUvarint(transport.AppendTweetsReq(nil, tweetsReq), 8)
	if got, rest, err := transport.ConsumeTweetsReq(three); err != nil || got != tweetsReq || len(rest) != 1 {
		t.Fatalf("tweets req with a third field: %+v, %d bytes left, %v", got, len(rest), err)
	}
	page := transport.AppendTweetsResp(nil, transport.TweetsResp{Total: 10, Posts: []microblog.Post{{Author: 3, Text: "a"}}})
	if resp, _, err := transport.ConsumeTweetsResp(page[:len(page)-1]); err == nil {
		t.Fatalf("page cut short decoded as %+v", resp)
	}
}
