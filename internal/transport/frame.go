// Package transport puts a wire behind the shard.Backend interface: a
// length-prefixed binary protocol over TCP carrying the scatter-gather
// exchange — term-set searches answered with raw integer candidate
// rows, batched denominator fetches, routed ingest batches, and epoch
// pushes and quiesce drains — between a RemoteShard client and a
// ShardServer wrapping one ingest.Index.
//
// The protocol exists because the sharded read path was
// transport-shaped before any transport existed: everything that
// crosses a shard boundary is an additive integer counter
// (expertise.RawCandidate, expertise.UserStats), every float division
// happens exactly once at the coordinator, and the per-shard unit of
// work runs against one pinned snapshot. Moving those integers through
// a socket therefore cannot change a single bit of the ranking — the
// bar TestRemoteQuiescedEquivalence holds the wire to.
//
// Framing. Every message is one frame: a 4-byte big-endian length (of
// everything after itself: one op byte plus the payload), the op byte,
// and an op-specific varint payload (wire.go), sent exactly as its codec
// wrote it — there is no compression envelope. ReadFrame, the one frame
// decoder, rejects a length past MaxFrame before any allocation and
// grows a cold buffer with the bytes that arrive, not with what the
// length claims (TestReadFrameAllocatesWhatArrives); every count field
// inside a payload is validated against the bytes actually present. So
// a hostile peer can neither panic a decoder nor make it over-allocate
// (FuzzDecodeFrame drives ReadFrame and every payload decoder), nor
// panic the server that acts on what it decoded (FuzzDispatch).
//
// Conversation state. A connection is a sequential request/response
// stream, and a query is one conversation on it: an OpSearchStats
// answered with the shard's own candidates and their denominators, read
// from one snapshot. On a multi-shard deployment the server keeps that
// snapshot pinned to the connection, and it is the connection's one
// piece of server-side state: the coordinator's top-up OpStats for
// foreign candidates reads it, so one query's numerators and
// denominators come from the same immutable view, and OpUnpin drops it
// without a response when no top-up comes. An OpStats with no pinned
// search is refused. RemoteShard checks a connection out of its pool
// for the whole conversation, so concurrent queries never interleave on
// one connection.
//
// Buffers. A warm conversation allocates nothing but the server's one
// string copy of a search request's terms. Every other byte lives in a
// buffer one of the two connection objects owns and the next
// conversation on that connection reuses: the client's request build
// buffer, both sides' frame and read buffers (the length prefix is read
// into the read buffer, the server's frame header built in its
// bufio.Writer's spare capacity), the decoded rows and stats, and the
// View itself, which is a field of the client connection it pins. The
// terms are copied once rather than aliased because the read buffer is
// overwritten by the next frame while tokens cut from the terms still
// sit in the shard's pooled scratch. An OpIngest frame is decoded into
// the server connection's one post slice, cleared once
// ingest.Index.IngestBatch has taken the posts: a post's text and
// mentions, which the index keeps, are the decode's only per-post
// allocations.
//
// Pushes. A connection that sent OpSubscribe additionally receives
// server-initiated OpEpochDelta frames whenever the index publishes a
// new snapshot. Pushes are coalesced (at most one write in flight per
// connection, always carrying the latest epoch) and serialized with
// response writes, so the stream stays framed; a client reading for a
// response absorbs any interleaved deltas. RemoteShard dedicates one
// pooled connection to its subscription and mirrors the pushed epoch
// into an atomic, which is what turns Cluster.EpochVector sampling
// into a memory read on warm connections.
//
// Failure policy is fail-fast: the client applies one deadline per
// round trip, retries once only when a pooled (possibly stale)
// connection dies before ever answering, and otherwise surfaces the
// error to the scatter-gather coordinator, which degrades to partial
// results and counts the event (core.ShardedLiveDetector.PartialStats,
// surfaced through serve.Stats). Reconnects are additionally gated by
// a shard.Health dial budget so a flapping server cannot stack dials.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// MaxFrame bounds one frame's length field: op byte plus payload. 8 MiB
// comfortably holds the largest legitimate message (a few thousand
// candidate rows or a paged ingest batch) while capping what a hostile
// length prefix can make a reader allocate.
const MaxFrame = 8 << 20

// Op identifies a frame's message type. Requests and their responses
// share the op; a server that cannot answer replies OpError instead.
type Op byte

// The protocol ops. The zero value is deliberately invalid. Three
// numbers are retired and never to be reused: 0x01 (the two-step
// search, folded into OpSearchStats), 0x04 (the epoch probe, replaced
// by the OpSubscribe push channel) and 0x10 (the frame compression
// envelope); a server answers each as an unknown op.
const (
	// OpStats fetches denominator triples for an ascending user list
	// (user ids → UserStats) from the snapshot the connection's last
	// OpSearchStats pinned; with no pin it is answered OpError.
	OpStats Op = 0x02
	// OpIngest appends a routed post batch (IngestReq → IngestResp).
	OpIngest Op = 0x03
	// OpQuiesce synchronously drains eligible compactions (empty
	// request → EpochResp with the post-quiesce epoch).
	OpQuiesce Op = 0x05
	// OpInfo describes the served partition (empty request →
	// InfoResp); clients use it as a deployment-sanity handshake.
	OpInfo Op = 0x06
	// OpTweets pages the shard's post log (TweetsReq → TweetsResp); the
	// cold-rebuild equivalence checks fetch ingested content with it.
	OpTweets Op = 0x07
	// OpSubscribe enrolls the connection for server→client epoch pushes
	// (empty request → EpochResp with the epoch the subscription starts
	// from). After the ack, the server interleaves OpEpochDelta frames
	// into the response stream whenever the index publishes.
	OpSubscribe Op = 0x08
	// OpEpochDelta is a server-initiated push (EpochResp payload, no
	// request): the subscribed shard's new absolute snapshot epoch.
	// Pushes are coalesced — one pusher per connection sends the latest
	// epoch, never a backlog.
	OpEpochDelta Op = 0x09
	// OpSearchStats is the composite query op (SearchReq →
	// SearchStatsResp): search plus denominator stats for the matched
	// candidates, executed server-side against one snapshot and answered
	// in one frame. On a multi-shard deployment the snapshot stays
	// pinned for the top-up OpStats fetching foreign candidates'
	// denominators; a single-shard server has no foreign candidates and
	// skips the pin.
	OpSearchStats Op = 0x0a
	// OpUnpin is fire-and-forget (empty payload, no response): it
	// releases the connection's pinned snapshot without costing a round
	// trip. Unpinning an unpinned connection is a no-op.
	OpUnpin Op = 0x0b
	// OpError is a response-only op whose payload is an error string.
	OpError Op = 0x7f
)

// Name returns the op's lowercase protocol name ("stats",
// "search_stats", ...), used to key per-op metrics; an op outside the
// protocol formats as "op_0xNN".
func (o Op) Name() string {
	switch o {
	case OpStats:
		return "stats"
	case OpIngest:
		return "ingest"
	case OpQuiesce:
		return "quiesce"
	case OpInfo:
		return "info"
	case OpTweets:
		return "tweets"
	case OpSubscribe:
		return "subscribe"
	case OpEpochDelta:
		return "epoch_delta"
	case OpSearchStats:
		return "search_stats"
	case OpUnpin:
		return "unpin"
	case OpError:
		return "error"
	}
	return fmt.Sprintf("op_0x%02x", byte(o))
}

// ErrFrameTooLarge reports a length prefix exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrame")

// ErrFrameTruncated reports a frame that ends before its declared
// length.
var ErrFrameTruncated = errors.New("transport: truncated frame")

// headerLen is the fixed frame prefix: the 4-byte length field.
const headerLen = 4

// AppendFrame appends one framed message to buf: header, op, payload.
func AppendFrame(buf []byte, op Op, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+len(payload)))
	buf = append(buf, byte(op))
	return append(buf, payload...)
}

// readAhead bounds how far past the bytes already read ReadFrame grows
// a buffer too small for the declared length.
const readAhead = 64 << 10

// ReadFrame reads exactly one frame from r, reusing buf's capacity —
// for the length prefix first, then, over it, for the body — and
// returns the op, the payload (aliasing the returned buffer) and the
// grown buffer for the next call; a warm buffer makes the read
// allocation-free. The length prefix is validated before the body is
// read, so a hostile prefix cannot drive an allocation past MaxFrame,
// and a buffer shorter than the body grows by append's rule, asking for
// at most readAhead bytes past what has arrived: a prefix that
// overstates the body costs what was sent, not what was claimed. A
// short read surfaces as ErrFrameTruncated (wrapping the underlying
// error) rather than a partially filled payload.
func ReadFrame(r io.Reader, buf []byte) (op Op, payload, bufOut []byte, err error) {
	if cap(buf) < headerLen {
		buf = make([]byte, headerLen)
	}
	buf = buf[:headerLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		// EOF before any header byte is a clean end of stream; anything
		// later is a truncation.
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("%w: %v", ErrFrameTruncated, err)
		}
		return 0, nil, buf, err
	}
	length := binary.BigEndian.Uint32(buf)
	if length == 0 {
		return 0, nil, buf, fmt.Errorf("transport: empty frame body")
	}
	if length > MaxFrame {
		return 0, nil, buf, ErrFrameTooLarge
	}
	n := int(length)
	for buf = buf[:0]; len(buf) < n; {
		next := n
		if cap(buf) < n {
			next = min(n, len(buf)+readAhead)
			buf = slices.Grow(buf, next-len(buf))
		}
		got, err := io.ReadFull(r, buf[len(buf):next])
		buf = buf[:len(buf)+got]
		if err != nil {
			return 0, nil, buf, fmt.Errorf("%w: %v", ErrFrameTruncated, err)
		}
	}
	return Op(buf[0]), buf[1:], buf, nil
}
