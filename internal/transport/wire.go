// Payload encodings for every protocol op: varint-based, append-style
// on the encode side, slice-consuming on the decode side. The candidate
// and denominator rows are the merge inputs whose exactness the
// equivalence spine depends on: they carry only additive integer
// counters, with user ids delta-compressed (both row kinds travel
// sorted or positionally aligned to a sorted user list). Every length
// field is validated against the bytes actually present before any
// allocation, so an adversarial frame can neither panic a decoder nor
// make it over-allocate.
package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/expertise"
	"repro/internal/microblog"
	"repro/internal/world"
)

// SearchReq is the OpSearchStats payload: the query and its expansion terms
// (the shard matches each and unions the results), plus the
// extended-feature flag the coordinator's parameter set implies.
type SearchReq struct {
	Extended bool
	Terms    []string
}

// AppendSearchReq appends the encoded request to buf.
func AppendSearchReq(buf []byte, req SearchReq) []byte {
	if req.Extended {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(req.Terms)))
	for _, t := range req.Terms {
		buf = appendString(buf, t)
	}
	return buf
}

// ConsumeSearchReq decodes a SearchReq off the front of buf, appending
// the terms into terms (capacity reused, contents discarded). Every
// length is checked against the bytes present first; then the terms
// region is copied into one string and each term is a substring of it —
// one allocation however many terms there are. The terms own their
// bytes: buf is a connection's read buffer, overwritten by its next
// frame while tokens cut from the terms still sit in pooled scratch.
func ConsumeSearchReq(terms []string, buf []byte) (SearchReq, []byte, error) {
	req := SearchReq{Terms: terms[:0]}
	if len(buf) == 0 {
		return req, buf, fmt.Errorf("search req: %w", ErrFrameTruncated)
	}
	req.Extended = buf[0] != 0
	buf = buf[1:]
	n, buf, err := consumeCount(buf, 1)
	if err != nil {
		return req, buf, fmt.Errorf("search req terms: %w", err)
	}
	rest := buf
	for i := 0; i < n; i++ {
		if _, rest, err = consumeBytes(rest); err != nil {
			return req, rest, fmt.Errorf("search req term %d: %w", i, err)
		}
	}
	region := string(buf[:len(buf)-len(rest)])
	for off := 0; len(req.Terms) < n; {
		l, w := binary.Uvarint(buf[off:]) // validated above
		off += w + int(l)
		req.Terms = append(req.Terms, region[off-int(l):off])
	}
	return req, rest, nil
}

// SearchStatsResp is the OpSearchStats response: one frame carrying
// both halves of the query conversation — the shard's matched-union
// size and candidate rows (ascending by user) plus the denominator
// triples for those same candidates, positionally aligned with Rows and read from the same
// snapshot. Foreign candidates' denominators are not here; a
// multi-shard coordinator tops them up with an OpStats against the
// still-pinned snapshot.
type SearchStatsResp struct {
	Matched int
	Rows    []expertise.RawCandidate
	Stats   []expertise.UserStats
}

// AppendSearchStatsResp appends the encoded response to buf.
func AppendSearchStatsResp(buf []byte, resp SearchStatsResp) []byte {
	buf = binary.AppendUvarint(buf, uint64(resp.Matched))
	buf = AppendRawCandidates(buf, resp.Rows)
	return AppendUserStats(buf, resp.Stats)
}

// ConsumeSearchStatsResp decodes a SearchStatsResp off the front of
// buf, appending into rows and stats (capacity reused, contents
// discarded). The stats list must be exactly as long as the row list —
// anything else means the peer broke the alignment the accumulation
// step trusts, and is rejected here rather than mis-summed there.
func ConsumeSearchStatsResp(rows []expertise.RawCandidate, stats []expertise.UserStats, buf []byte) (SearchStatsResp, []byte, error) {
	var resp SearchStatsResp
	m, buf, err := consumeUvarint(buf)
	if err != nil {
		return resp, buf, fmt.Errorf("search+stats resp matched: %w", err)
	}
	resp.Matched = int(m)
	resp.Rows, buf, err = ConsumeRawCandidates(rows, buf)
	if err != nil {
		return resp, buf, fmt.Errorf("search+stats resp rows: %w", err)
	}
	resp.Stats, buf, err = ConsumeUserStats(stats, buf)
	if err != nil {
		return resp, buf, fmt.Errorf("search+stats resp stats: %w", err)
	}
	if len(resp.Stats) != len(resp.Rows) {
		return resp, buf, fmt.Errorf("search+stats resp: %d stats for %d rows", len(resp.Stats), len(resp.Rows))
	}
	return resp, buf, nil
}

// AppendRawCandidates appends a length-prefixed encoding of rcs to buf:
// a row count, then per row the user id (delta-encoded against the
// previous row — the lists travel sorted by ascending user) and the
// four numerator counters, all uvarints.
func AppendRawCandidates(buf []byte, rcs []expertise.RawCandidate) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rcs)))
	prev := uint64(0)
	for i := range rcs {
		u := uint64(rcs[i].User)
		buf = binary.AppendUvarint(buf, u-prev)
		prev = u
		buf = binary.AppendUvarint(buf, uint64(rcs[i].Tweets))
		buf = binary.AppendUvarint(buf, uint64(rcs[i].Mentions))
		buf = binary.AppendUvarint(buf, uint64(rcs[i].Retweets))
		buf = binary.AppendUvarint(buf, uint64(rcs[i].Hashtagged))
	}
	return buf
}

// ConsumeRawCandidates decodes an AppendRawCandidates encoding from the
// front of buf, appending rows to dst (capacity reused, contents
// discarded), and returns the filled slice plus the remaining bytes.
// The claimed row count is validated against the bytes present (every
// row occupies at least five bytes) before anything is allocated.
func ConsumeRawCandidates(dst []expertise.RawCandidate, buf []byte) ([]expertise.RawCandidate, []byte, error) {
	dst = dst[:0]
	n, buf, err := consumeCount(buf, 5)
	if err != nil {
		return dst, buf, fmt.Errorf("raw candidates: %w", err)
	}
	prev := uint64(0)
	for i := 0; i < n; i++ {
		var fields [5]uint64
		for f := range fields {
			fields[f], buf, err = consumeUvarint(buf)
			if err != nil {
				return dst, buf, fmt.Errorf("raw candidate row %d: %w", i, err)
			}
		}
		prev += fields[0]
		dst = append(dst, expertise.RawCandidate{
			User:       world.UserID(prev),
			Tweets:     int(fields[1]),
			Mentions:   int(fields[2]),
			Retweets:   int(fields[3]),
			Hashtagged: int(fields[4]),
		})
	}
	return dst, buf, nil
}

// AppendUserStats appends a length-prefixed encoding of the denominator
// triples to buf. The rows are positionally aligned with the request's
// user list, so no user ids travel — just a count and three uvarints
// per row.
func AppendUserStats(buf []byte, stats []expertise.UserStats) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(stats)))
	for i := range stats {
		buf = binary.AppendUvarint(buf, uint64(stats[i].Tweets))
		buf = binary.AppendUvarint(buf, uint64(stats[i].Mentions))
		buf = binary.AppendUvarint(buf, uint64(stats[i].Retweets))
	}
	return buf
}

// ConsumeUserStats decodes an AppendUserStats encoding from the front
// of buf, appending triples to dst (capacity reused, contents
// discarded), and returns the filled slice plus the remaining bytes.
func ConsumeUserStats(dst []expertise.UserStats, buf []byte) ([]expertise.UserStats, []byte, error) {
	dst = dst[:0]
	n, buf, err := consumeCount(buf, 3)
	if err != nil {
		return dst, buf, fmt.Errorf("user stats: %w", err)
	}
	for i := 0; i < n; i++ {
		var fields [3]uint64
		for f := range fields {
			fields[f], buf, err = consumeUvarint(buf)
			if err != nil {
				return dst, buf, fmt.Errorf("user stats row %d: %w", i, err)
			}
		}
		dst = append(dst, expertise.UserStats{
			Tweets:   int(fields[0]),
			Mentions: int(fields[1]),
			Retweets: int(fields[2]),
		})
	}
	return dst, buf, nil
}

// AppendUserIDs appends a length-prefixed, delta-compressed encoding of
// an ascending user id list to buf — the OpStats request's payload.
func AppendUserIDs(buf []byte, users []world.UserID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(users)))
	prev := uint64(0)
	for _, u := range users {
		buf = binary.AppendUvarint(buf, uint64(u)-prev)
		prev = uint64(u)
	}
	return buf
}

// ConsumeUserIDs decodes an AppendUserIDs encoding from the front of
// buf, appending ids to dst (capacity reused, contents discarded), and
// returns the filled slice plus the remaining bytes.
func ConsumeUserIDs(dst []world.UserID, buf []byte) ([]world.UserID, []byte, error) {
	dst = dst[:0]
	n, buf, err := consumeCount(buf, 1)
	if err != nil {
		return dst, buf, fmt.Errorf("user ids: %w", err)
	}
	prev := uint64(0)
	for i := 0; i < n; i++ {
		var d uint64
		d, buf, err = consumeUvarint(buf)
		if err != nil {
			return dst, buf, fmt.Errorf("user id %d: %w", i, err)
		}
		prev += d
		dst = append(dst, world.UserID(prev))
	}
	return dst, buf, nil
}

// IngestReq is the OpIngest payload: a batch of routed posts.
type IngestReq struct {
	Posts []microblog.Post
}

// AppendIngestReq appends the encoded request to buf.
func AppendIngestReq(buf []byte, req IngestReq) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(req.Posts)))
	for i := range req.Posts {
		buf = appendPost(buf, &req.Posts[i])
	}
	return buf
}

// ConsumeIngestReq decodes an IngestReq off the front of buf.
func ConsumeIngestReq(buf []byte) (IngestReq, []byte, error) {
	var req IngestReq
	n, buf, err := consumeCount(buf, 4)
	if err != nil {
		return req, buf, fmt.Errorf("ingest req: %w", err)
	}
	req.Posts = make([]microblog.Post, 0, n)
	for i := 0; i < n; i++ {
		var p microblog.Post
		p, buf, err = consumePost(buf)
		if err != nil {
			return req, buf, fmt.Errorf("ingest req post %d: %w", i, err)
		}
		req.Posts = append(req.Posts, p)
	}
	return req, buf, nil
}

// IngestResp is the OpIngest response: the shard-local id of the
// batch's first post (-1 for an empty batch) and the accepted count.
type IngestResp struct {
	First microblog.TweetID
	Count int
}

// AppendIngestResp appends the encoded response to buf.
func AppendIngestResp(buf []byte, resp IngestResp) []byte {
	buf = binary.AppendVarint(buf, int64(resp.First))
	return binary.AppendUvarint(buf, uint64(resp.Count))
}

// ConsumeIngestResp decodes an IngestResp off the front of buf.
func ConsumeIngestResp(buf []byte) (IngestResp, []byte, error) {
	var resp IngestResp
	first, buf, err := consumeVarint(buf)
	if err != nil {
		return resp, buf, fmt.Errorf("ingest resp first: %w", err)
	}
	resp.First = microblog.TweetID(first)
	n, buf, err := consumeUvarint(buf)
	if err != nil {
		return resp, buf, fmt.Errorf("ingest resp count: %w", err)
	}
	resp.Count = int(n)
	return resp, buf, nil
}

// EpochResp answers OpSubscribe and OpQuiesce, and is the OpEpochDelta push.
type EpochResp struct {
	Epoch uint64
}

// AppendEpochResp appends the encoded response to buf.
func AppendEpochResp(buf []byte, resp EpochResp) []byte {
	return binary.AppendUvarint(buf, resp.Epoch)
}

// ConsumeEpochResp decodes an EpochResp off the front of buf.
func ConsumeEpochResp(buf []byte) (EpochResp, []byte, error) {
	e, buf, err := consumeUvarint(buf)
	if err != nil {
		return EpochResp{}, buf, fmt.Errorf("epoch resp: %w", err)
	}
	return EpochResp{Epoch: e}, buf, nil
}

// InfoResp is the OpInfo response: which partition this server claims
// to hold and how much of it is populated. Clients use it as a
// deployment handshake — a coordinator wired to the wrong shard, the
// wrong partition count or a differently built base corpus finds out
// before the first query does.
type InfoResp struct {
	// Shard and NumShards are the served partition's coordinates.
	Shard, NumShards int
	// Users is the world size (ranking arenas are sized by it).
	Users int
	// BaseTweets and NumTweets count the frozen base slice and the
	// current total (base plus ingested).
	BaseTweets, NumTweets int
	// Epoch is the current snapshot epoch.
	Epoch uint64
	// Incarnation is a random value drawn once per server lifetime. A
	// client pins it at handshake and re-checks it on every fresh dial:
	// a restarted server carries a new incarnation, and must be treated
	// as a different (empty-again) shard rather than silently reconnected
	// to — its epoch has regressed and its ingested content is gone.
	Incarnation uint64
}

// AppendInfoResp appends the encoded response to buf.
func AppendInfoResp(buf []byte, resp InfoResp) []byte {
	buf = binary.AppendUvarint(buf, uint64(resp.Shard))
	buf = binary.AppendUvarint(buf, uint64(resp.NumShards))
	buf = binary.AppendUvarint(buf, uint64(resp.Users))
	buf = binary.AppendUvarint(buf, uint64(resp.BaseTweets))
	buf = binary.AppendUvarint(buf, uint64(resp.NumTweets))
	buf = binary.AppendUvarint(buf, resp.Epoch)
	return binary.AppendUvarint(buf, resp.Incarnation)
}

// ConsumeInfoResp decodes an InfoResp — exactly seven fields — off the
// front of buf.
func ConsumeInfoResp(buf []byte) (InfoResp, []byte, error) {
	var fields [7]uint64
	var err error
	for f := range fields {
		fields[f], buf, err = consumeUvarint(buf)
		if err != nil {
			return InfoResp{}, buf, fmt.Errorf("info resp: %w", err)
		}
	}
	resp := InfoResp{
		Shard:       int(fields[0]),
		NumShards:   int(fields[1]),
		Users:       int(fields[2]),
		BaseTweets:  int(fields[3]),
		NumTweets:   int(fields[4]),
		Epoch:       fields[5],
		Incarnation: fields[6],
	}
	return resp, buf, nil
}

// TweetsReq is the OpTweets payload: a page request over the shard's
// global tweet-id space.
type TweetsReq struct {
	// From is the first global id wanted; Max caps how many posts the
	// page holds (the server may return fewer — it also honors its own
	// cap).
	From, Max int
}

// AppendTweetsReq appends the encoded request to buf.
func AppendTweetsReq(buf []byte, req TweetsReq) []byte {
	buf = binary.AppendUvarint(buf, uint64(req.From))
	return binary.AppendUvarint(buf, uint64(req.Max))
}

// ConsumeTweetsReq decodes a TweetsReq off the front of buf. Every
// field must fit an int: a cursor decoded negative would index the
// shard's log out of range.
func ConsumeTweetsReq(buf []byte) (TweetsReq, []byte, error) {
	var req TweetsReq
	var err error
	if req.From, buf, err = consumeInt(buf); err != nil {
		return TweetsReq{}, buf, fmt.Errorf("tweets req from: %w", err)
	}
	if req.Max, buf, err = consumeInt(buf); err != nil {
		return TweetsReq{}, buf, fmt.Errorf("tweets req max: %w", err)
	}
	return req, buf, nil
}

// TweetsResp is the OpTweets response: the page's posts and the shard's
// current total, so the client knows when it has paged everything. The
// posts travel in the raw Post form; re-rendering through
// microblog.MakeTweet reproduces the exact tokenization the shard
// indexed, so a cold rebuild from paged content is bit-identical.
type TweetsResp struct {
	Total int
	Posts []microblog.Post
}

// AppendTweetsResp appends the encoded response to buf.
func AppendTweetsResp(buf []byte, resp TweetsResp) []byte {
	buf = binary.AppendUvarint(buf, uint64(resp.Total))
	buf = binary.AppendUvarint(buf, uint64(len(resp.Posts)))
	for i := range resp.Posts {
		buf = appendPost(buf, &resp.Posts[i])
	}
	return buf
}

// ConsumeTweetsResp decodes a TweetsResp off the front of buf.
func ConsumeTweetsResp(buf []byte) (TweetsResp, []byte, error) {
	var resp TweetsResp
	total, buf, err := consumeUvarint(buf)
	if err != nil {
		return resp, buf, fmt.Errorf("tweets resp total: %w", err)
	}
	resp.Total = int(total)
	n, buf, err := consumeCount(buf, 4)
	if err != nil {
		return resp, buf, fmt.Errorf("tweets resp: %w", err)
	}
	resp.Posts = make([]microblog.Post, 0, n)
	for i := 0; i < n; i++ {
		var p microblog.Post
		p, buf, err = consumePost(buf)
		if err != nil {
			return resp, buf, fmt.Errorf("tweets resp post %d: %w", i, err)
		}
		resp.Posts = append(resp.Posts, p)
	}
	return resp, buf, nil
}

// appendPost appends one raw post: author, text, mentions, retweet
// count, and the zigzag-encoded topic (-1 means chatter).
func appendPost(buf []byte, p *microblog.Post) []byte {
	buf = binary.AppendUvarint(buf, uint64(p.Author))
	buf = appendString(buf, p.Text)
	buf = binary.AppendUvarint(buf, uint64(len(p.Mentions)))
	for _, m := range p.Mentions {
		buf = binary.AppendUvarint(buf, uint64(m))
	}
	buf = binary.AppendUvarint(buf, uint64(p.RetweetCount))
	return binary.AppendVarint(buf, int64(p.Topic))
}

// consumePost decodes one raw post off the front of buf.
func consumePost(buf []byte) (microblog.Post, []byte, error) {
	var p microblog.Post
	author, buf, err := consumeUvarint(buf)
	if err != nil {
		return p, buf, err
	}
	p.Author = world.UserID(author)
	p.Text, buf, err = consumeString(buf)
	if err != nil {
		return p, buf, err
	}
	nm, buf, err := consumeCount(buf, 1)
	if err != nil {
		return p, buf, err
	}
	if nm > 0 {
		p.Mentions = make([]world.UserID, 0, nm)
		for i := 0; i < nm; i++ {
			var m uint64
			m, buf, err = consumeUvarint(buf)
			if err != nil {
				return p, buf, err
			}
			p.Mentions = append(p.Mentions, world.UserID(m))
		}
	}
	rt, buf, err := consumeUvarint(buf)
	if err != nil {
		return p, buf, err
	}
	p.RetweetCount = int(rt)
	topic, buf, err := consumeVarint(buf)
	if err != nil {
		return p, buf, err
	}
	p.Topic = world.TopicID(topic)
	return p, buf, nil
}

// appendString appends a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// consumeString reads a length-prefixed string, validating the length
// against the bytes present before allocating.
func consumeString(buf []byte) (string, []byte, error) {
	b, buf, err := consumeBytes(buf)
	return string(b), buf, err
}

// consumeBytes reads a length-prefixed byte field, validating the
// length against the bytes present; the field aliases buf.
func consumeBytes(buf []byte) (field, rest []byte, err error) {
	n, buf, err := consumeUvarint(buf)
	if err != nil {
		return nil, buf, err
	}
	if n > uint64(len(buf)) {
		return nil, buf, fmt.Errorf("string length %d exceeds payload: %w", n, ErrFrameTruncated)
	}
	return buf[:n], buf[n:], nil
}

// consumeCount reads an element count and rejects it unless the
// remaining bytes could hold that many elements of at least minBytes
// each — the over-allocation guard: a hostile count can never drive an
// allocation past the data actually received.
func consumeCount(buf []byte, minBytes int) (int, []byte, error) {
	n, buf, err := consumeUvarint(buf)
	if err != nil {
		return 0, buf, err
	}
	if n > uint64(len(buf)/minBytes) {
		return 0, buf, fmt.Errorf("count %d exceeds payload: %w", n, ErrFrameTruncated)
	}
	return int(n), buf, nil
}

// consumeUvarint reads one uvarint off the front of buf.
func consumeUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, buf, ErrFrameTruncated
	}
	return v, buf[n:], nil
}

// consumeInt reads one uvarint that must fit an int off the front of buf.
func consumeInt(buf []byte) (int, []byte, error) {
	v, rest, err := consumeUvarint(buf)
	if err == nil && v > math.MaxInt {
		err = fmt.Errorf("value %d overflows int", v)
	}
	return int(v), rest, err
}

// consumeVarint reads one zigzag varint off the front of buf.
func consumeVarint(buf []byte) (int64, []byte, error) {
	v, n := binary.Varint(buf)
	if n <= 0 {
		return 0, buf, ErrFrameTruncated
	}
	return v, buf[n:], nil
}
