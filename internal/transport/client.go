package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expertise"
	"repro/internal/microblog"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/world"
)

// ClientConfig tunes a RemoteShard.
type ClientConfig struct {
	// Timeout bounds one request round trip — dial, write, read. Zero
	// means 2s. Quiesce, which drains compactions server-side, gets ten
	// times as long (quiesceTimeoutFactor).
	Timeout time.Duration
	// Dial overrides the dialer — the fault-injection tests wrap
	// connections here. Nil means net.DialTimeout("tcp", addr, timeout).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// DialBackoff tunes the reconnect budget: every fresh dial must be
	// granted by a shard.Health running these windows, so a flapping or
	// dead server costs one dial per backoff window instead of one per
	// request. Zero fields take shard.DefaultBackoff.
	DialBackoff shard.Backoff
	// Obs, when non-nil, exports the client's wire accounting into the
	// registry: per-op round-trip counters and latency histograms
	// (rpc_client_<op>_requests, rpc_client_<op>_ns), byte counters
	// (rpc_client_bytes_read, rpc_client_bytes_written), rpc_client_dials
	// and rpc_client_epoch_rtts. Handles are get-or-create by name, so
	// every client sharing one registry aggregates into the same rows —
	// cluster-wide client totals, with per-shard latency split already
	// covered by the coordinator's sharded_shard<i>_* histograms. Nil
	// adds no clock reads to the request path.
	Obs *obs.Registry
}

// DefaultClientConfig returns the client defaults.
func DefaultClientConfig() ClientConfig { return ClientConfig{} }

// The client's fixed sizes — constants rather than ClientConfig fields,
// because no deployment has needed a second value of any of them.
const (
	// maxIdleConns caps the pooled idle connections per client.
	maxIdleConns = 4
	// ingestChunk caps how many posts one OpIngest frame carries, so one
	// IngestBatch never exceeds MaxFrame; a larger batch is split into
	// sequential frames.
	ingestChunk = 512
	// quiesceTimeoutFactor stretches Timeout for the OpQuiesce round
	// trip, which waits out a server-side compaction drain.
	quiesceTimeoutFactor = 10
)

// ErrClientClosed reports a request on a closed RemoteShard.
var ErrClientClosed = errors.New("transport: client closed")

// RemoteShard speaks the wire protocol to one ShardServer and satisfies
// shard.Backend, so a shard.Cluster (and through it
// core.ShardedLiveDetector) addresses a networked shard exactly as it
// addresses an in-process one. Connections are pooled and reused; a
// request that fails on a pooled — possibly stale — connection before
// ever being answered is retried once on a fresh dial (the reconnect
// path), and every other failure surfaces immediately: fail fast,
// degrade to partial results, let the coordinator count it. Safe for
// concurrent use; concurrent requests use distinct connections.
type RemoteShard struct {
	addr string
	cfg  ClientConfig

	mu     sync.Mutex
	idle   []*clientConn
	closed bool
	// expect, once Handshake succeeds, pins the deployment identity —
	// including the server incarnation — that every freshly dialed
	// connection is re-verified against (see negotiate). Published
	// atomically: every search reads it, and must not queue on the
	// connection-pool mutex to do so.
	expect atomic.Pointer[InfoResp]

	// health is the dial budget: every fresh dial must be granted by
	// this backoff state machine, failed dials (and failed negotiation)
	// open its window.
	health *shard.Health

	// The epoch-push subscription. subMu guards subConn and the
	// subscribe/teardown transitions; subOn flips true while a
	// subscription's reader loop is live, and subEpoch mirrors the
	// latest epoch the server reported (pushes, acks and quiesce
	// responses — monotonic via CAS, see noteEpoch). While subOn, Epoch
	// is a memory read.
	subMu    sync.Mutex
	subConn  *clientConn
	subOn    atomic.Bool
	subEpoch atomic.Uint64

	dials atomic.Int64
	// epochRTTs counts round trips spent learning epochs (OpSubscribe
	// exchanges) — the number the push path drives to zero on warm
	// connections.
	epochRTTs atomic.Int64

	// Observability (zero-valued without ClientConfig.Obs): per-op
	// round-trip counters and latency histograms indexed by op byte,
	// plus the wire byte counters. All handles are nil-safe, so the
	// un-instrumented path pays nothing but the obsOn branch.
	obsOn        bool
	obsOpReqs    [128]*obs.Counter
	obsOpNS      [128]*obs.Histogram
	obsBytesR    *obs.Counter
	obsBytesW    *obs.Counter
	obsDials     *obs.Counter
	obsEpochRTTs *obs.Counter
}

// clientConn is one pooled connection plus everything a conversation
// on it reuses: its buffers and the View it becomes while a search
// holds it checked out.
type clientConn struct {
	c      net.Conn
	br     *bufio.Reader
	in     []byte // frame read buffer
	out    []byte // frame build buffer
	req    []byte // search / stats request payload build buffer
	pooled bool   // checked out of the idle pool (retry-once eligible)
	// view is the shard.View a search hands out over this connection.
	// A view lives exactly as long as that check-out, so it is a field
	// reset per conversation rather than an object per query.
	view remoteView
}

// RemoteShard must keep satisfying the interface the in-process
// shards speak — that is the whole point of the transport.
var _ shard.Backend = (*RemoteShard)(nil)

// NewRemoteShard builds a client for one shard server. No connection is
// made until the first request (or Handshake).
func NewRemoteShard(addr string, cfg ClientConfig) *RemoteShard {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	r := &RemoteShard{addr: addr, cfg: cfg, health: shard.NewHealth(cfg.DialBackoff)}
	if cfg.Obs != nil {
		r.obsOn = true
		for _, op := range requestOps {
			r.obsOpReqs[op&0x7f] = cfg.Obs.Counter("rpc_client_" + op.Name() + "_requests")
			r.obsOpNS[op&0x7f] = cfg.Obs.Histogram("rpc_client_" + op.Name() + "_ns")
		}
		r.obsBytesR = cfg.Obs.Counter("rpc_client_bytes_read")
		r.obsBytesW = cfg.Obs.Counter("rpc_client_bytes_written")
		r.obsDials = cfg.Obs.Counter("rpc_client_dials")
		r.obsEpochRTTs = cfg.Obs.Counter("rpc_client_epoch_rtts")
	}
	return r
}

// Addr returns the server address this client dials.
func (r *RemoteShard) Addr() string { return r.addr }

// Dials returns how many connections this client has opened — the
// fault-injection tests assert reconnects with it.
func (r *RemoteShard) Dials() int64 { return r.dials.Load() }

// EpochRTTs returns how many round trips this client has spent
// learning epochs: its answered OpSubscribe exchanges (a dial the
// budget refused sent nothing and is not counted). On warm subscribed
// connections the count stays flat — pushes carry the epochs — which
// the streaming example's smoke run asserts.
func (r *RemoteShard) EpochRTTs() int64 { return r.epochRTTs.Load() }

// Subscribed reports whether an epoch-push subscription is currently
// live (Epoch is a memory read while it is).
func (r *RemoteShard) Subscribed() bool { return r.subOn.Load() }

// EpochIsLocal implements shard.Backend dynamically: sampling
// this backend's epoch is free exactly while a subscription is live.
// Nothing in the serving path reads it: a lapsed subscription's Epoch
// re-subscribes through the dial budget on its own.
func (r *RemoteShard) EpochIsLocal() bool { return r.subOn.Load() }

// Failovers implements shard.Backend: one server, nowhere to fail over
// to (replica.Set fails over across RemoteShards).
func (r *RemoteShard) Failovers() int64 { return 0 }

// Health returns the client's dial budget state machine.
func (r *RemoteShard) Health() *shard.Health { return r.health }

// checkout pops an idle connection or dials a fresh one.
func (r *RemoteShard) checkout() (*clientConn, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClientClosed
	}
	if n := len(r.idle); n > 0 {
		cc := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.mu.Unlock()
		cc.pooled = true
		return cc, nil
	}
	r.mu.Unlock()
	return r.dialConn()
}

// dialConn opens a fresh connection, inside the dial budget: a grant
// is requested from health first, a refused dial fails instantly with
// shard.ErrBackoff, and the dial-plus-negotiation outcome feeds the
// budget back. That caps reconnect attempts per backoff window no
// matter how many requests pile onto a flapping shard.
func (r *RemoteShard) dialConn() (*clientConn, error) {
	if !r.health.Allow() {
		return nil, fmt.Errorf("transport: dial %s: %w", r.addr, shard.ErrBackoff)
	}
	dial := r.cfg.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	c, err := dial(r.addr, r.cfg.Timeout)
	if err != nil {
		r.health.Fail()
		return nil, fmt.Errorf("transport: dial %s: %w", r.addr, err)
	}
	r.dials.Add(1)
	r.obsDials.Add(1)
	cc := &clientConn{c: c, br: bufio.NewReader(c)}
	if err := r.negotiate(cc); err != nil {
		r.health.Fail()
		cc.c.Close()
		return nil, err
	}
	r.health.Ok()
	return cc, nil
}

// release returns a healthy connection to the pool (or closes it when
// the pool is full or the client closed).
func (r *RemoteShard) release(cc *clientConn) {
	cc.pooled = false
	r.mu.Lock()
	if !r.closed && len(r.idle) < maxIdleConns {
		r.idle = append(r.idle, cc)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	cc.c.Close()
}

// negotiate runs the once-per-connection OpInfo exchange on a freshly
// dialed connection and — once Handshake has pinned the deployment
// identity — re-verifies it; this is the one identity check, and only
// the client can run it whole. The server must still be the same shard,
// partition, world — and the same *incarnation*. A restarted shardd
// starts a fresh index whose epoch regresses to zero; silently
// reconnecting to it would let the serving cache treat pre-restart
// entries as fresh forever. The incarnation check turns that into a
// hard backend failure, which the coordinator degrades on (partial
// results, EpochUnknown, cache bypass) until the operator re-wires.
func (r *RemoteShard) negotiate(cc *clientConn) error {
	resp, _, err := r.roundTrip(cc, OpInfo, nil, r.cfg.Timeout)
	if err != nil {
		return err
	}
	info, _, err := ConsumeInfoResp(resp)
	if err != nil {
		return err
	}
	expect := r.expect.Load()
	if expect == nil {
		return nil
	}
	if info.Shard != expect.Shard || info.NumShards != expect.NumShards ||
		info.Users != expect.Users || info.BaseTweets != expect.BaseTweets {
		return fmt.Errorf("transport: %s now serves shard %d/%d (%d users, %d base tweets), handshake pinned %d/%d (%d, %d)",
			r.addr, info.Shard, info.NumShards, info.Users, info.BaseTweets,
			expect.Shard, expect.NumShards, expect.Users, expect.BaseTweets)
	}
	if info.Incarnation != expect.Incarnation {
		return fmt.Errorf("transport: %s restarted (incarnation %x, handshake pinned %x) — its live content is gone, re-wire before trusting it",
			r.addr, info.Incarnation, expect.Incarnation)
	}
	return nil
}

// roundTrip sends one framed request on cc and reads one response
// frame, under one deadline. The returned payload aliases cc.in and is
// valid until the next roundTrip on cc. An OpError response is decoded
// into an error with okConn=true (the stream is still synchronized); an
// unexpected op poisons the connection. Interleaved OpEpochDelta pushes
// are absorbed into the cached epoch, not taken for the response.
func (r *RemoteShard) roundTrip(cc *clientConn, op Op, payload []byte, timeout time.Duration) (respPayload []byte, okConn bool, err error) {
	if r.obsOn {
		// Count and time the whole round trip — write through response
		// read — whatever exit path it takes.
		r.obsOpReqs[op&0x7f].Add(1)
		t0 := time.Now()
		defer func() { r.obsOpNS[op&0x7f].Observe(time.Since(t0).Nanoseconds()) }()
	}
	if err := cc.c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, false, fmt.Errorf("transport: set deadline: %w", err)
	}
	cc.out = AppendFrame(cc.out[:0], op, payload)
	if _, err := cc.c.Write(cc.out); err != nil {
		return nil, false, fmt.Errorf("transport: write %s: %w", r.addr, err)
	}
	r.obsBytesW.Add(int64(len(cc.out)))
	for {
		respOp, resp, buf, err := ReadFrame(cc.br, cc.in)
		cc.in = buf
		if err != nil {
			return nil, false, fmt.Errorf("transport: read %s: %w", r.addr, err)
		}
		r.obsBytesR.Add(int64(headerLen + 1 + len(resp)))
		if respOp == OpEpochDelta {
			er, _, err := ConsumeEpochResp(resp)
			if err != nil {
				return nil, false, fmt.Errorf("transport: %s: bad epoch push: %w", r.addr, err)
			}
			r.noteEpoch(er.Epoch)
			continue
		}
		switch respOp {
		case op:
			return resp, true, nil
		case OpError:
			return nil, true, fmt.Errorf("transport: %s: server error: %s", r.addr, resp)
		default:
			return nil, false, fmt.Errorf("transport: %s: op 0x%02x in response to 0x%02x", r.addr, byte(respOp), byte(op))
		}
	}
}

// request is what one exchange sends: an op and its payload. A search
// carries its terms instead, encoded into the connection's own build
// buffer on every attempt — a re-sent search lands on a fresh
// connection with a fresh buffer — so the search path hands nothing to
// the heap.
type request struct {
	op       Op
	payload  []byte
	terms    []string // OpSearchStats only
	extended bool
}

// encode returns the payload to send on cc.
func (q *request) encode(cc *clientConn) []byte {
	if q.op != OpSearchStats {
		return q.payload
	}
	cc.req = AppendSearchReq(cc.req[:0], SearchReq{Extended: q.extended, Terms: q.terms})
	return cc.req
}

// exchange is the one request exchange every op goes through: check a
// connection out and run one round trip, under base clamped by ctx's
// remaining budget. A pooled connection that dies before answering is
// the classic stale-keepalive shape (server restarted, idle timeout):
// with resend it is replaced by one fresh dial, inside a re-derived
// budget, and the request sent once more — then fail fast. Reads are
// re-sent, writes never: a write whose connection dies after the server
// applied it but before the response arrived must not be sent again, or
// the shard would hold the post twice and break the bit-identical bar.
// On success the connection comes back still checked out, with resp
// aliasing its read buffer, and the caller owns it (do decodes and
// releases, a search keeps it as the pinned view, subscribe hands it to
// the reader); on error it is already released or closed.
func (r *RemoteShard) exchange(ctx context.Context, q request, base time.Duration, resend bool) (cc *clientConn, resp []byte, err error) {
	timeout, err := r.reqTimeout(ctx, base)
	if err != nil {
		return nil, nil, err
	}
	if cc, err = r.checkout(); err != nil {
		return nil, nil, err
	}
	resp, okConn, err := r.roundTrip(cc, q.op, q.encode(cc), timeout)
	if err != nil && !okConn && cc.pooled && resend {
		cc.c.Close()
		if timeout, err = r.reqTimeout(ctx, base); err != nil {
			return nil, nil, err
		}
		if cc, err = r.dialConn(); err != nil {
			return nil, nil, err
		}
		resp, okConn, err = r.roundTrip(cc, q.op, q.encode(cc), timeout)
	}
	if err != nil {
		if okConn {
			r.release(cc)
		} else {
			cc.c.Close()
		}
		return nil, nil, err
	}
	return cc, resp, nil
}

// do runs one exchange whose response is consumed on the spot: decode
// reads the payload, then the connection goes back to the pool.
func (r *RemoteShard) do(op Op, payload []byte, timeout time.Duration, resend bool, decode func(resp []byte) error) error {
	cc, resp, err := r.exchange(context.Background(), request{op: op, payload: payload}, timeout, resend)
	if err != nil {
		return err
	}
	if err := decode(resp); err != nil {
		// A response that fails to decode means the stream can no
		// longer be trusted.
		cc.c.Close()
		return err
	}
	r.release(cc)
	return nil
}

// Handshake fetches the server's partition info and verifies it against
// the coordinates the caller is about to wire it into: shard index,
// partition count, world size, and the base-corpus slice (a server
// built from a different pipeline configuration would silently break
// the equivalence bar — this catches it at wiring time).
func (r *RemoteShard) Handshake(shardIdx, numShards, users, baseTweets int) error {
	info, err := r.Info()
	if err != nil {
		return err
	}
	if info.Shard != shardIdx || info.NumShards != numShards {
		return fmt.Errorf("transport: %s serves shard %d/%d, want %d/%d",
			r.addr, info.Shard, info.NumShards, shardIdx, numShards)
	}
	if info.Users != users {
		return fmt.Errorf("transport: %s world has %d users, coordinator has %d",
			r.addr, info.Users, users)
	}
	if info.BaseTweets != baseTweets {
		return fmt.Errorf("transport: %s base holds %d tweets, coordinator's partition has %d",
			r.addr, info.BaseTweets, baseTweets)
	}
	// Pin the verified identity — incarnation included — so every
	// future fresh dial re-verifies against it (negotiate).
	r.expect.Store(&info)
	return nil
}

// Info fetches the server's partition description.
func (r *RemoteShard) Info() (InfoResp, error) {
	var info InfoResp
	err := r.do(OpInfo, nil, r.cfg.Timeout, true, func(resp []byte) error {
		var err error
		info, _, err = ConsumeInfoResp(resp)
		return err
	})
	return info, err
}

// reqTimeout derives one RPC's wire deadline from the caller's
// remaining context budget: the configured per-request timeout, clamped
// to whatever the context has left. An already-spent budget fails here
// — before any dial or write — with ctx.Err(), which is how a
// front-door deadline turns into a fast 504 instead of a
// default-timeout hang. RemoteShard starts no per-request goroutines,
// so cancellation leaks nothing by construction.
func (r *RemoteShard) reqTimeout(ctx context.Context, base time.Duration) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if d, ok := ctx.Deadline(); ok {
		if rem := time.Until(d); rem <= 0 {
			return 0, context.DeadlineExceeded
		} else if rem < base {
			return rem, nil
		}
	}
	return base, nil
}

// Search implements shard.Backend: SearchStats with the stats dropped.
func (r *RemoteShard) Search(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate) ([]expertise.RawCandidate, int, shard.View, error) {
	rows, matched, _, v, err := r.SearchStats(ctx, terms, extended, raw, nil)
	return rows, matched, v, err
}

// SearchStats implements shard.Backend: the whole search→stats
// conversation in one OpSearchStats round trip. The response carries
// the shard's candidate rows plus the denominator triples for those
// same candidates, read from one snapshot server-side — on a
// single-shard deployment that is the entire query, one frame each
// way, and the server pins nothing, so the View's Stats fails. On a
// multi-shard one the returned View answers the coordinator's top-up
// OpStats (foreign candidates' denominators) against the pinned
// snapshot. The wire deadline is the configured timeout clamped by
// ctx's remaining budget.
func (r *RemoteShard) SearchStats(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate, stats []expertise.UserStats) ([]expertise.RawCandidate, int, []expertise.UserStats, shard.View, error) {
	cc, resp, err := r.exchange(ctx, request{op: OpSearchStats, terms: terms, extended: extended}, r.cfg.Timeout, true)
	if err != nil {
		return raw[:0], 0, stats[:0], nil, err
	}
	sr, _, err := ConsumeSearchStatsResp(raw, stats, resp)
	if err != nil {
		cc.c.Close()
		return raw[:0], 0, stats[:0], nil, err
	}
	// A single-shard server does not pin after a composite (there is
	// nothing to top up), so the release needs no OpUnpin.
	expect := r.expect.Load()
	cc.view = remoteView{r: r, cc: cc, pinCleared: expect != nil && expect.NumShards == 1}
	return sr.Rows, sr.Matched, sr.Stats, &cc.view, nil
}

// remoteView is the client end of a pinned search→stats conversation:
// the checked-out connection whose server side holds the snapshot the
// search ran against. It is embedded in that clientConn and reset by
// the OpSearchStats that opens each conversation.
type remoteView struct {
	r      *RemoteShard
	cc     *clientConn
	broken bool
	// pinCleared is set once any op after the search has reached the
	// server (the server drops its snapshot pin on every op but the
	// composite search that opens a conversation).
	pinCleared bool
}

// Stats implements shard.View with one OpStats round trip on the
// pinned connection, under the configured timeout clamped by ctx's
// remaining budget. No retry: a fresh connection would see a fresh
// snapshot, not the one the candidates came from — fail fast instead.
func (v *remoteView) Stats(ctx context.Context, users []world.UserID, dst []expertise.UserStats) ([]expertise.UserStats, error) {
	if v.broken {
		return dst[:0], fmt.Errorf("transport: %s: view connection already failed", v.r.addr)
	}
	timeout, err := v.r.reqTimeout(ctx, v.r.cfg.Timeout)
	if err != nil {
		return dst[:0], err
	}
	v.cc.req = AppendUserIDs(v.cc.req[:0], users)
	resp, okConn, err := v.r.roundTrip(v.cc, OpStats, v.cc.req, timeout)
	if okConn {
		// The request reached the server, which releases its snapshot
		// pin after answering the stats of a search→stats conversation.
		v.pinCleared = true
	}
	if err != nil {
		if !okConn {
			v.broken = true
		}
		return dst[:0], err
	}
	dst, _, err = ConsumeUserStats(dst, resp)
	if err != nil {
		v.broken = true
		return dst[:0], err
	}
	return dst, nil
}

// Release implements shard.View: a healthy connection returns to the
// pool, a broken one closes. A view released while the server still
// pins a snapshot first clears that pin with one fire-and-forget
// OpUnpin write (no response, no round trip) — otherwise an idle
// pooled connection would retain a retired snapshot server-side
// indefinitely.
func (v *remoteView) Release() {
	if v.broken {
		v.cc.c.Close()
		return
	}
	if !v.pinCleared {
		if err := v.r.writeFrame(v.cc, OpUnpin, nil); err != nil {
			v.cc.c.Close()
			return
		}
	}
	v.r.release(v.cc)
}

// writeFrame writes one frame with no response expected (OpUnpin).
func (r *RemoteShard) writeFrame(cc *clientConn, op Op, payload []byte) error {
	if err := cc.c.SetDeadline(time.Now().Add(r.cfg.Timeout)); err != nil {
		return err
	}
	cc.out = AppendFrame(cc.out[:0], op, payload)
	_, err := cc.c.Write(cc.out)
	if err == nil {
		r.obsOpReqs[op&0x7f].Add(1)
		r.obsBytesW.Add(int64(len(cc.out)))
	}
	return err
}

// IngestBatch implements shard.Backend, shipping the batch as
// ingestChunk-post OpIngest frames. A write is never re-sent (see
// exchange).
func (r *RemoteShard) IngestBatch(posts []microblog.Post) error {
	for start := 0; start < len(posts); start += ingestChunk {
		end := min(start+ingestChunk, len(posts))
		payload := AppendIngestReq(nil, IngestReq{Posts: posts[start:end]})
		err := r.do(OpIngest, payload, r.cfg.Timeout, false, func(resp []byte) error {
			_, _, err := ConsumeIngestResp(resp)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// noteEpoch folds a server-reported epoch into the cached one,
// monotonically: epochs only grow within one server incarnation (a
// restart is a hard failure via the incarnation pin, never a silent
// regression), so the max of everything observed — pushes, acks,
// quiesce responses — is always the freshest view.
func (r *RemoteShard) noteEpoch(e uint64) {
	for {
		cur := r.subEpoch.Load()
		if e <= cur || r.subEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Epoch implements shard.Backend: cache or subscribe. While an
// epoch-push subscription is live this is a memory read — zero round
// trips, which is what turns the serve cache's per-request epoch-vector
// sample into nanoseconds. Cold (or after a subscription lapse) it
// subscribes first, paying one round trip that buys every future
// sample.
func (r *RemoteShard) Epoch() (uint64, error) {
	if r.subOn.Load() {
		return r.subEpoch.Load(), nil
	}
	return r.subscribe()
}

// subscribe establishes the epoch-push subscription: it dedicates one
// connection (from the pool or freshly dialed), sends OpSubscribe
// (re-sent once on a stale connection like any read), and hands the
// connection to a reader goroutine that mirrors every pushed delta into
// the atomic epoch. Concurrent callers coalesce on subMu — the losers
// see subOn and read the fresh cache.
func (r *RemoteShard) subscribe() (uint64, error) {
	r.subMu.Lock()
	defer r.subMu.Unlock()
	if r.subOn.Load() {
		return r.subEpoch.Load(), nil
	}
	cc, resp, err := r.exchange(context.Background(), request{op: OpSubscribe}, r.cfg.Timeout, true)
	if err != nil {
		return 0, err
	}
	r.epochRTTs.Add(1)
	r.obsEpochRTTs.Add(1)
	er, _, err := ConsumeEpochResp(resp)
	if err != nil {
		cc.c.Close()
		return 0, err
	}
	// The subscription reader owns the connection from here on; clear
	// the round-trip deadline so an idle (no publishes) subscription
	// does not time itself out.
	if err := cc.c.SetDeadline(time.Time{}); err != nil {
		cc.c.Close()
		return 0, err
	}
	r.noteEpoch(er.Epoch)
	r.subConn = cc
	r.subOn.Store(true)
	go r.subLoop(cc)
	return r.subEpoch.Load(), nil
}

// subLoop is the subscription's dedicated reader: it blocks on the
// connection and mirrors every OpEpochDelta into the atomic epoch.
// Any read error or protocol surprise ends the subscription — subOn
// flips off first, so samplers re-subscribe through the dial budget
// rather than trusting a frozen cache.
func (r *RemoteShard) subLoop(cc *clientConn) {
	for {
		op, payload, buf, err := ReadFrame(cc.br, cc.in)
		cc.in = buf
		if err == nil && op == OpEpochDelta {
			var er EpochResp
			if er, _, err = ConsumeEpochResp(payload); err == nil {
				r.noteEpoch(er.Epoch)
				continue
			}
		}
		r.subOn.Store(false)
		r.subMu.Lock()
		if r.subConn == cc {
			r.subConn = nil
		}
		r.subMu.Unlock()
		cc.c.Close()
		return
	}
}

// Quiesce implements shard.Backend: the server drains its eligible
// compactions before answering, so this round trip gets
// quiesceTimeoutFactor × Timeout. The post-quiesce epoch folds into the
// push cache, so a quiesce-then-sample sequence observes it even if the
// corresponding push is still in flight.
func (r *RemoteShard) Quiesce() error {
	return r.do(OpQuiesce, nil, quiesceTimeoutFactor*r.cfg.Timeout, true, func(resp []byte) error {
		er, _, err := ConsumeEpochResp(resp)
		if err == nil {
			r.noteEpoch(er.Epoch)
		}
		return err
	})
}

// Tweets fetches one page of the shard's post log starting at global id
// from (at most max posts; the server applies its own page cap too).
func (r *RemoteShard) Tweets(from, max int) (TweetsResp, error) {
	var page TweetsResp
	payload := AppendTweetsReq(nil, TweetsReq{From: from, Max: max})
	err := r.do(OpTweets, payload, r.cfg.Timeout, true, func(resp []byte) error {
		var err error
		page, _, err = ConsumeTweetsResp(resp)
		return err
	})
	return page, err
}

// DumpIngested pages every post the shard holds beyond its frozen base
// — the remote form of walking a snapshot's ingested suffix, which the
// cold-rebuild equivalence checks feed through microblog.MakeTweet.
func (r *RemoteShard) DumpIngested() ([]microblog.Post, error) {
	info, err := r.Info()
	if err != nil {
		return nil, err
	}
	var posts []microblog.Post
	from := info.BaseTweets
	for {
		page, err := r.Tweets(from, maxTweetsPage)
		if err != nil {
			return nil, err
		}
		posts = append(posts, page.Posts...)
		from += len(page.Posts)
		if from >= page.Total || len(page.Posts) == 0 {
			return posts, nil
		}
	}
}

// Close implements shard.Backend: it closes the pooled connections and
// rejects further requests. The remote server keeps running — closing
// a client is a coordinator-side action.
func (r *RemoteShard) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	idle := r.idle
	r.idle = nil
	r.mu.Unlock()
	for _, cc := range idle {
		cc.c.Close()
	}
	// Closing the subscription connection unblocks its reader, which
	// flips subOn off and forgets the connection.
	r.subMu.Lock()
	if r.subConn != nil {
		r.subConn.c.Close()
	}
	r.subMu.Unlock()
	return nil
}
