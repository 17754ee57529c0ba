package transport

import (
	"bufio"
	"cmp"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diskseg"
	"repro/internal/expertise"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/world"
)

// pushWriteTimeout bounds one OpEpochDelta write: a subscriber that
// cannot absorb a 3-byte frame in this long is dead or wedged, and the
// pusher drops the connection rather than block on it.
const pushWriteTimeout = 5 * time.Second

// newIncarnation draws the per-lifetime random server identity.
func newIncarnation() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a constant
		// here only weakens restart detection, so degrade quietly.
		return 1
	}
	return binary.BigEndian.Uint64(b[:])
}

// ServerConfig tunes a ShardServer.
type ServerConfig struct {
	// Shard and NumShards are the partition coordinates this server
	// claims in OpInfo — the deployment handshake clients verify.
	Shard, NumShards int
	// Obs, when non-nil, exports the server's wire accounting into the
	// registry: per-op request counters (rpc_server_<op>_requests, read
	// callbacks over the same atomics Requests reports), per-op
	// dispatch-to-flush latency histograms (rpc_server_<op>_ns),
	// rpc_server_pushes and byte counters (rpc_server_bytes_read,
	// rpc_server_bytes_written). Nil serves identically with no clock
	// reads on the request loop.
	Obs *obs.Registry
}

// DefaultServerConfig returns the serving defaults for shard i of n.
func DefaultServerConfig(i, n int) ServerConfig {
	return ServerConfig{Shard: i, NumShards: n}
}

// maxTweetsPage caps the posts one OpTweets page holds regardless of what
// the request asks for, bounding response frames.
const maxTweetsPage = 2048

// ShardServer serves one shard's ingest.Index over the wire protocol:
// each accepted connection is handled by one goroutine running a
// sequential read-dispatch-respond loop. Query execution happens in a
// shard.Local wrapping the index — the identical code path the
// in-process topology runs — so the only thing the wire adds is
// encode/decode, which carries integers and therefore cannot perturb
// the ranking.
type ShardServer struct {
	idx   *ingest.Index
	local *shard.Local
	cfg   ServerConfig
	ln    net.Listener
	// incarnation is drawn once per server lifetime and reported in
	// OpInfo; clients pin it at handshake and refuse to silently
	// reconnect to a restarted (epoch-regressed, content-lost) server.
	incarnation uint64

	mu     sync.Mutex
	conns  map[net.Conn]*connState
	closed bool

	// reqs counts request frames by op; pushes counts OpEpochDelta
	// frames sent. They exist so tests can hold the round-trip
	// accounting to exact numbers: a warm composite query is one
	// OpSearchStats and nothing else, epoch sampling on a subscribed
	// connection is zero requests. With ServerConfig.Obs the same atomics
	// back the registry's rpc_server_<op>_requests rows through read
	// callbacks — one accounting, two consumers.
	reqs   [128]atomic.Int64
	pushes atomic.Int64

	// Observability (zero-valued without ServerConfig.Obs): per-op
	// latency histograms indexed like reqs, and the wire byte counters.
	obsOn                         bool
	obsOpNS                       [128]*obs.Histogram
	obsBytesRead, obsBytesWritten *obs.Counter

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
}

// Requests returns how many request frames of op the server has
// dispatched since it started.
func (s *ShardServer) Requests(op Op) int64 { return s.reqs[op&0x7f].Load() }

// Pushes returns how many OpEpochDelta frames the server has pushed.
func (s *ShardServer) Pushes() int64 { return s.pushes.Load() }

// Serve starts serving idx on ln in background goroutines and returns
// immediately. Close stops accepting, closes every open connection and
// waits for the handlers; Wait blocks until the accept loop exits.
func Serve(ln net.Listener, idx *ingest.Index, cfg ServerConfig) *ShardServer {
	s := &ShardServer{
		idx:         idx,
		local:       shard.NewLocal(idx),
		cfg:         cfg,
		ln:          ln,
		incarnation: newIncarnation(),
		conns:       make(map[net.Conn]*connState),
	}
	if cfg.Obs != nil {
		s.obsOn = true
		for _, op := range requestOps {
			cfg.Obs.RegisterFunc("rpc_server_"+op.Name()+"_requests", func() int64 {
				return s.reqs[op&0x7f].Load()
			})
			s.obsOpNS[op&0x7f] = cfg.Obs.Histogram("rpc_server_" + op.Name() + "_ns")
		}
		cfg.Obs.RegisterFunc("rpc_server_pushes", s.pushes.Load)
		s.obsBytesRead = cfg.Obs.Counter("rpc_server_bytes_read")
		s.obsBytesWritten = cfg.Obs.Counter("rpc_server_bytes_written")
	}
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s
}

// requestOps is every op a client can legitimately send — the set the
// server pre-registers per-op metrics for. OpEpochDelta (push-only)
// and OpError (response-only) are deliberately absent.
var requestOps = []Op{
	OpStats, OpIngest, OpQuiesce, OpInfo,
	OpTweets, OpSubscribe, OpSearchStats, OpUnpin,
}

// Listen is the one-call form of Serve: it binds addr (TCP; ":0" picks
// a free port — read it back with Addr) and starts serving.
func Listen(addr string, idx *ingest.Index, cfg ServerConfig) (*ShardServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return Serve(ln, idx, cfg), nil
}

// Addr returns the listening address.
func (s *ShardServer) Addr() net.Addr { return s.ln.Addr() }

// Index returns the served streaming index.
func (s *ShardServer) Index() *ingest.Index { return s.idx }

// Wait blocks until the server stops accepting (Close, or a fatal
// listener error).
func (s *ShardServer) Wait() {
	s.acceptWG.Wait()
}

// Close is Shutdown with no grace: it stops accepting, closes every
// open connection and waits for the per-connection handlers to drain.
// The underlying index is not closed — it belongs to the caller.
func (s *ShardServer) Close() error { return s.Shutdown(0) }

// Shutdown stops accepting immediately, reaps idle connections (pooled
// keepalives and push subscribers, whose pushers stop through the
// handler teardown), and keeps connections that are mid-conversation —
// dispatching a request, or holding an OpSearchStats snapshot pin for
// its top-up OpStats — alive for up to grace so the conversation
// finishes and the response reaches the peer. Whatever remains when the
// grace expires is closed abruptly. Safe to call concurrently with
// Close; both are idempotent.
func (s *ShardServer) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	s.mu.Unlock()
	deadline := time.Now().Add(grace)
	for {
		busy := 0
		s.mu.Lock()
		for c, st := range s.conns {
			if st.busy.Load() {
				busy++
				continue
			}
			// The handler wakes from its blocking read with an error and
			// tears the connection down (forget, view release, pusher
			// stop) — reuse of the normal exit path keeps one cleanup.
			c.Close()
		}
		s.mu.Unlock()
		if busy == 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.acceptWG.Wait()
	s.connWG.Wait()
	return err
}

// acceptLoop admits connections until the listener closes.
func (s *ShardServer) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		st := &connState{
			br:        bufio.NewReader(conn),
			bw:        bufio.NewWriter(conn),
			obsBytesW: s.obsBytesWritten,
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = st
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handle(conn, st)
	}
}

// forget drops a finished connection from the close set.
func (s *ShardServer) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// connState is the per-connection request-handling state: buffered IO,
// reusable frame/payload buffers, and the protocol state — the view
// the last OpSearchStats pinned (which a following OpStats reads so
// both halves of a query observe the same snapshot) and the
// subscription pusher's controls.
type connState struct {
	br   *bufio.Reader
	bw   *bufio.Writer
	in   []byte // frame read buffer
	out  []byte // response build buffer
	rows []expertise.RawCandidate
	stat []expertise.UserStats
	uids []world.UserID
	view shard.View

	// terms holds the decoded search terms (ConsumeSearchReq's scratch).
	terms []string

	// busy marks a connection mid-conversation: a request frame is
	// being dispatched, or the last OpSearchStats left a snapshot
	// pinned for its top-up OpStats. Shutdown's drain keeps busy
	// connections alive until the conversation closes (or the grace
	// period runs out) and reaps the rest immediately.
	busy atomic.Bool

	// wmu serializes every frame write on bw: responses from the
	// handler loop and pushes from the connection's pusher goroutine.
	wmu sync.Mutex
	// obsBytesW is the server's wire-write counter, shared by handler
	// and pusher (guarded by wmu like the writer itself); nil-safe, and
	// nil on an un-instrumented server.
	obsBytesW *obs.Counter
	// subscribed, stop and subEpoch exist once OpSubscribe succeeds:
	// stop ends the pusher when the handler exits, subEpoch is the
	// epoch the subscription ack reported (the pusher's baseline).
	subscribed bool
	stop       chan struct{}
	subEpoch   uint64
}

// handle runs one connection's sequential request loop until the peer
// hangs up, a frame fails to parse, or the server closes.
func (s *ShardServer) handle(conn net.Conn, st *connState) {
	defer s.connWG.Done()
	defer s.forget(conn)
	defer conn.Close()
	defer func() {
		if st.stop != nil {
			close(st.stop)
		}
		if st.view != nil {
			st.view.Release()
			st.view = nil
		}
	}()
	for {
		op, payload, buf, err := ReadFrame(st.br, st.in)
		st.in = buf
		if err != nil {
			// EOF and connection-reset are the peer leaving; a parse
			// error means the stream is unframeable — either way the
			// only safe move is to drop the connection (responding
			// in-stream to an unsynchronized peer would corrupt it).
			return
		}
		var t0 time.Time
		if s.obsOn {
			s.obsBytesRead.Add(int64(headerLen + 1 + len(payload)))
			t0 = time.Now()
		}
		s.reqs[op&0x7f].Add(1)
		st.busy.Store(true)
		// A fire-and-forget op (OpUnpin) gets nothing back.
		respOp := s.respond(st, op, payload)
		if respOp != opNone {
			if err := s.writeResp(st, respOp, st.out); err != nil {
				return
			}
		}
		// The conversation stays open — and the connection drain-exempt —
		// exactly while an OpSearchStats pin awaits its top-up OpStats;
		// everything else returns the connection to idle.
		st.busy.Store(st.view != nil)
		if s.obsOn {
			// Dispatch-to-flush: the server-side cost of the request,
			// response serialization and write included. Nil-safe for op
			// bytes outside the protocol (no histogram registered).
			s.obsOpNS[op&0x7f].Observe(time.Since(t0).Nanoseconds())
		}
		if respOp == OpSubscribe && !st.subscribed {
			// Start pushing only after the ack is on the wire, so the
			// client's first frame after OpSubscribe is its response.
			st.subscribed = true
			st.stop = make(chan struct{})
			s.connWG.Add(1)
			go s.pushLoop(conn, st, st.subEpoch)
		}
	}
}

// opNone is dispatch's "write no response" sentinel (fire-and-forget
// requests). It is the deliberately invalid zero op.
const opNone Op = 0

// respond dispatches one request and returns the op its response in
// st.out goes under: the request's own, OpError (a failed request keeps
// the stream synchronized), or opNone for a fire-and-forget request.
func (s *ShardServer) respond(st *connState, op Op, payload []byte) Op {
	st.out = st.out[:0]
	respOp, err := s.dispatch(st, op, payload)
	if op != OpSearchStats && st.view != nil {
		// The pin exists solely for the one OpStats that may immediately
		// follow a composite search; any other op ends that conversation,
		// so drop it rather than let an idle pooled connection retain a
		// retired snapshot (and its segments) server-side indefinitely.
		st.view.Release()
		st.view = nil
	}
	if err != nil {
		st.out = append(st.out[:0], err.Error()...)
		return OpError
	}
	return respOp
}

// writeResp writes one response frame under the connection's write mutex.
func (s *ShardServer) writeResp(st *connState, op Op, payload []byte) error {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	return writeFrameLocked(st, op, payload)
}

// writeFrameLocked writes and flushes one frame; callers hold st.wmu.
func writeFrameLocked(st *connState, op Op, payload []byte) error {
	st.obsBytesW.Add(int64(headerLen + 1 + len(payload)))
	// The header is built in the writer's own spare buffer: a local array
	// would escape into the bufio.Writer, one allocation per frame.
	hdr := binary.BigEndian.AppendUint32(st.bw.AvailableBuffer(), uint32(1+len(payload)))
	if _, err := st.bw.Write(append(hdr, byte(op))); err != nil {
		return err
	}
	if _, err := st.bw.Write(payload); err != nil {
		return err
	}
	return st.bw.Flush()
}

// pushLoop is the per-subscribed-connection pusher: it sleeps on the
// index's publish channel and writes one OpEpochDelta with the latest
// epoch per wakeup. Being a single goroutine per connection is what
// coalesces pushes — while one write is in flight no other push can
// start, and the next one reads whatever epoch is current by then, so
// a burst of publishes costs one frame, never a backlog.
func (s *ShardServer) pushLoop(conn net.Conn, st *connState, last uint64) {
	defer s.connWG.Done()
	var payload []byte
	for {
		// Grab the watch channel before reading the epoch: a publish
		// racing these two lines either bumped the epoch read below or
		// closes the channel held here — a wakeup cannot be lost.
		ch := s.idx.Watch()
		if cur := s.idx.Epoch(); cur != last {
			payload = AppendEpochResp(payload[:0], EpochResp{Epoch: cur})
			st.wmu.Lock()
			conn.SetWriteDeadline(time.Now().Add(pushWriteTimeout))
			err := writeFrameLocked(st, OpEpochDelta, payload)
			conn.SetWriteDeadline(time.Time{})
			st.wmu.Unlock()
			if err != nil {
				conn.Close()
				return
			}
			s.pushes.Add(1)
			last = cur
		}
		select {
		case <-ch:
		case <-st.stop:
			return
		}
	}
}

// checkUsers rejects user ids outside the served world: per-user
// counters are arrays over it, so a stray id would panic the shard.
func (s *ShardServer) checkUsers(users ...world.UserID) error {
	n := len(s.idx.World().Users)
	for _, u := range users {
		if u < 0 || int(u) >= n {
			return fmt.Errorf("transport: user %d outside the %d-user world", u, n)
		}
	}
	return nil
}

// checkRetweets refuses a retweet count the sealed-segment format
// cannot hold: every post is sealed, and a seal cannot leave one out.
func checkRetweets(n int) error {
	if n < 0 || uint64(n) > diskseg.MaxRetweetCount {
		return fmt.Errorf("transport: retweet count %d outside [0, %d]", n, uint64(diskseg.MaxRetweetCount))
	}
	return nil
}

// dispatch decodes one request, executes it and builds the response
// payload in st.out. A returned error becomes an OpError response; the
// connection survives (the request was framed correctly, so the stream
// is still synchronized).
func (s *ShardServer) dispatch(st *connState, op Op, payload []byte) (Op, error) {
	switch op {
	case OpSearchStats:
		req, _, err := ConsumeSearchReq(st.terms, payload)
		st.terms = req.Terms
		if err != nil {
			return 0, err
		}
		if st.view != nil {
			st.view.Release()
			st.view = nil
		}
		// The same call the in-process shard answers the coordinator
		// with; it releases the view itself on error. The wire carries
		// no deadline (the client applies its clamped budget to the
		// conn's IO deadlines instead), so it runs unbounded.
		var matched int
		var view shard.View
		st.rows, matched, st.stat, view, err = s.local.SearchStats(context.Background(), req.Terms, req.Extended, st.rows, st.stat)
		if err != nil {
			return 0, err
		}
		if s.cfg.NumShards > 1 {
			// A multi-shard coordinator may top up foreign candidates'
			// denominators with an OpStats next; keep the snapshot
			// pinned for it. A single-shard deployment has no foreign
			// candidates, so skip the pin and let the client skip the
			// OpUnpin too — that is what makes the healthy N=1 query
			// exactly one frame each way.
			st.view = view
		} else {
			view.Release()
		}
		st.out = AppendSearchStatsResp(st.out, SearchStatsResp{Matched: matched, Rows: st.rows, Stats: st.stat})
		return OpSearchStats, nil

	case OpUnpin:
		// Fire-and-forget: the handler loop's post-dispatch release
		// already drops any pin; there is nothing to answer.
		return opNone, nil

	case OpSubscribe:
		e := s.idx.Epoch()
		st.subEpoch = e
		st.out = AppendEpochResp(st.out, EpochResp{Epoch: e})
		return OpSubscribe, nil

	case OpStats:
		// Denominators are only ever read from the snapshot the
		// connection's last composite search pinned, so a query's two
		// halves cannot straddle a publish.
		if st.view == nil {
			return 0, errors.New("transport: stats without a pinned search")
		}
		var err error
		st.uids, _, err = ConsumeUserIDs(st.uids, payload)
		if err == nil {
			err = s.checkUsers(st.uids...)
		}
		if err != nil {
			return 0, err
		}
		st.stat, err = st.view.Stats(context.Background(), st.uids, st.stat)
		if err != nil {
			return 0, err
		}
		st.out = AppendUserStats(st.out, st.stat)
		return OpStats, nil

	case OpIngest:
		req, _, err := ConsumeIngestReq(payload)
		if err != nil {
			return 0, err
		}
		for _, p := range req.Posts {
			if err := cmp.Or(s.checkUsers(p.Author), s.checkUsers(p.Mentions...), checkRetweets(p.RetweetCount)); err != nil {
				return 0, err
			}
		}
		// One frame, one publish: the batch advances the epoch by one
		// and wakes a subscriber's pusher once.
		first := s.idx.IngestBatch(req.Posts)
		st.out = AppendIngestResp(st.out, IngestResp{First: first, Count: len(req.Posts)})
		return OpIngest, nil

	case OpQuiesce:
		s.idx.Quiesce()
		st.out = AppendEpochResp(st.out, EpochResp{Epoch: s.idx.Epoch()})
		return OpQuiesce, nil

	case OpInfo:
		// The request is empty: the client checks the answer against
		// what its handshake pinned (RemoteShard.negotiate).
		if len(payload) != 0 {
			return 0, fmt.Errorf("transport: info request carries %d bytes, want none", len(payload))
		}
		snap := s.idx.Snapshot()
		st.out = AppendInfoResp(st.out, InfoResp{
			Shard:       s.cfg.Shard,
			NumShards:   s.cfg.NumShards,
			Users:       len(s.idx.World().Users),
			BaseTweets:  s.idx.Base().NumTweets(),
			NumTweets:   snap.NumTweets(),
			Epoch:       snap.Epoch(),
			Incarnation: s.incarnation,
		})
		return OpInfo, nil

	case OpTweets:
		req, _, err := ConsumeTweetsReq(payload)
		if err != nil {
			return 0, err
		}
		var resp TweetsResp
		resp.Posts, resp.Total = s.local.PagePosts(req.From, min(req.Max, maxTweetsPage))
		st.out = AppendTweetsResp(st.out, resp)
		return OpTweets, nil

	default:
		return 0, fmt.Errorf("transport: unknown op 0x%02x", byte(op))
	}
}
