// Package fault is the reusable chaos harness behind the replication
// and transport test suites: scriptable fault injection at the two
// seams the system can break on — the connection (Conn/Dialer, the
// generalization of the ad-hoc tracking/truncating/fragmenting conns
// the PR 4 flaky tests grew) and the backend call boundary (Backend,
// which can kill, delay or error any replica at a scripted point) —
// plus CheckLeaks, the goroutine and file-descriptor check a test runs
// across its own teardown. Production code never imports it; it lives
// outside the test binaries only so the suites can share one
// vocabulary of faults.
package fault

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expertise"
	"repro/internal/microblog"
	"repro/internal/shard"
	"repro/internal/world"
)

// ErrKilled is the error every operation on a killed Backend (or a
// dial through a killed Dialer) returns.
var ErrKilled = errors.New("fault: killed")

// Conn wraps a net.Conn with scriptable stream-level faults: Kill
// closes it out from under its owner, SetDelay stalls every Read, and
// TruncateAfter cuts the inbound stream after a byte budget —
// simulating a peer dying mid-frame. Fragment delivers one byte per
// syscall in both directions, the adversarial TCP segmentation a
// framing layer must not notice. Safe for concurrent use.
type Conn struct {
	net.Conn

	mu       sync.Mutex
	readCap  int // remaining inbound bytes; <0 = unlimited
	fragment bool
	delay    time.Duration
	// rdeadline mirrors the owner's read deadline so an armed delay
	// respects it: a stalled Read gives up when the deadline passes
	// (with the same timeout error the net stack returns) instead of
	// sleeping through it — without this, no client-side budget could
	// ever observe a stalled peer in time.
	rdeadline time.Time
}

// WrapConn returns c with no faults armed.
func WrapConn(c net.Conn) *Conn { return &Conn{Conn: c, readCap: -1} }

// Kill closes the underlying connection; every in-flight and future
// operation on it fails.
func (c *Conn) Kill() { c.Conn.Close() }

// SetDelay stalls every subsequent Read by d before touching the
// underlying connection.
func (c *Conn) SetDelay(d time.Duration) {
	c.mu.Lock()
	c.delay = d
	c.mu.Unlock()
}

// TruncateAfter cuts the inbound stream after n more bytes: reads past
// the budget return io.EOF, as if the peer died mid-frame.
func (c *Conn) TruncateAfter(n int) {
	c.mu.Lock()
	c.readCap = n
	c.mu.Unlock()
}

// Fragment makes every subsequent Read and Write deliver one byte per
// syscall.
func (c *Conn) Fragment() {
	c.mu.Lock()
	c.fragment = true
	c.mu.Unlock()
}

// SetDeadline implements net.Conn, mirroring the read half for the
// armed delay.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdeadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// SetReadDeadline implements net.Conn, mirroring it for the armed
// delay.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdeadline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// Read implements net.Conn under the armed faults.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	delay, capped, budget, frag := c.delay, c.readCap >= 0, c.readCap, c.fragment
	deadline := c.rdeadline
	c.mu.Unlock()
	if delay > 0 {
		if !deadline.IsZero() {
			rem := time.Until(deadline)
			if rem < delay {
				// The stall outlives the owner's deadline: honor the
				// deadline, not the fault.
				if rem > 0 {
					time.Sleep(rem)
				}
				return 0, os.ErrDeadlineExceeded
			}
		}
		time.Sleep(delay)
	}
	if capped {
		if budget <= 0 {
			return 0, io.EOF
		}
		if len(p) > budget {
			p = p[:budget]
		}
	}
	if frag && len(p) > 1 {
		p = p[:1]
	}
	n, err := c.Conn.Read(p)
	if capped {
		c.mu.Lock()
		c.readCap -= n
		c.mu.Unlock()
	}
	return n, err
}

// Write implements net.Conn under the armed faults.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	frag := c.fragment
	c.mu.Unlock()
	if !frag {
		return c.Conn.Write(p)
	}
	for i := range p {
		if _, err := c.Conn.Write(p[i : i+1]); err != nil {
			return i, err
		}
	}
	return len(p), nil
}

// Dialer produces fault-wrapped connections for a transport client
// (plug Dial into transport.ClientConfig.Dial) and remembers every
// connection it handed out, so a test can kill the live ones out from
// under the pool, arm faults on future connections, or refuse dials
// entirely — while counting them. Safe for concurrent use.
type Dialer struct {
	mu       sync.Mutex
	conns    []*Conn
	dialErr  error
	truncate int // armed on each new conn; <0 = off
	fragment bool
	delay    time.Duration

	dials atomic.Int64
}

// NewDialer returns a Dialer with no faults armed.
func NewDialer() *Dialer { return &Dialer{truncate: -1} }

// Dial opens a TCP connection wrapped in the currently armed faults;
// it has the signature transport.ClientConfig.Dial expects.
func (d *Dialer) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	d.mu.Lock()
	dialErr, truncate, fragment, delay := d.dialErr, d.truncate, d.fragment, d.delay
	d.mu.Unlock()
	if dialErr != nil {
		return nil, dialErr
	}
	raw, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	d.dials.Add(1)
	c := WrapConn(raw)
	if truncate >= 0 {
		c.TruncateAfter(truncate)
	}
	if fragment {
		c.Fragment()
	}
	if delay > 0 {
		c.SetDelay(delay)
	}
	d.mu.Lock()
	d.conns = append(d.conns, c)
	d.mu.Unlock()
	return c, nil
}

// Dials returns how many connections were successfully opened.
func (d *Dialer) Dials() int64 { return d.dials.Load() }

// KillAll closes every connection handed out so far.
func (d *Dialer) KillAll() {
	d.mu.Lock()
	conns := d.conns
	d.mu.Unlock()
	for _, c := range conns {
		c.Kill()
	}
}

// TruncateAll cuts the inbound stream of every *live* connection
// after n more bytes — the peer dying mid-response on the pooled
// connections a client is holding right now.
func (d *Dialer) TruncateAll(n int) {
	d.mu.Lock()
	conns := d.conns
	d.mu.Unlock()
	for _, c := range conns {
		c.TruncateAfter(n)
	}
}

// RefuseDials makes every future Dial fail with ErrKilled (the
// server's address black-holed); AllowDials undoes it.
func (d *Dialer) RefuseDials() {
	d.mu.Lock()
	d.dialErr = ErrKilled
	d.mu.Unlock()
}

// AllowDials re-enables dialing after RefuseDials.
func (d *Dialer) AllowDials() {
	d.mu.Lock()
	d.dialErr = nil
	d.mu.Unlock()
}

// TruncateNext arms every future connection to cut its inbound stream
// after n bytes (pass a negative n to disarm).
func (d *Dialer) TruncateNext(n int) {
	d.mu.Lock()
	d.truncate = n
	d.mu.Unlock()
}

// StallAll stalls every Read of every live connection by delay, and
// arms every future connection the same way (0 disarms). A stalled
// read still honors its deadline — it fails with a timeout error when
// the deadline lands inside the stall — so this is the wire-level
// shape of a hung server under a client budget.
func (d *Dialer) StallAll(delay time.Duration) {
	d.mu.Lock()
	d.delay = delay
	conns := append([]*Conn(nil), d.conns...)
	d.mu.Unlock()
	for _, c := range conns {
		c.SetDelay(delay)
	}
}

// FragmentAll arms every future connection to deliver one byte per
// syscall in both directions.
func (d *Dialer) FragmentAll() {
	d.mu.Lock()
	d.fragment = true
	d.mu.Unlock()
}

// Backend wraps a shard.Backend with scriptable call-boundary faults:
// Kill fails every future call while calls already past the gate run
// to completion against the healthy inner backend (drain semantics —
// a view handed out before the kill still answers its stats fetch),
// KillAfterCalls arms the kill at an exact future call count for
// deterministic mid-load injection, FailViewAtCall fails the top-up of
// the view one scripted call hands out (the shard dying between a
// query's two phases), SetDelay stalls every call, and Heal clears the
// kill. Per-op counters record what reached the gate, so a test can pin
// not just results but traffic — e.g. that a read failover never
// re-sent a write. Safe for concurrent use.
type Backend struct {
	inner shard.Backend

	killed    atomic.Bool
	killAfter atomic.Int64 // fail calls once Calls() passes this; <=0 = disarmed
	failView  atomic.Int64 // the call whose view fails its Stats; <=0 = disarmed
	delay     atomic.Int64 // per-call stall in nanoseconds

	calls                        atomic.Int64 // every call that reached the gate
	composites, ingests          atomic.Int64 // calls that passed the gate
	epochs, quiesces             atomic.Int64
	searchesKilled, ingestKilled atomic.Int64 // calls refused by the gate
	viewsFailed                  atomic.Int64 // Stats calls on a failing view
}

// Backend must be able to stand in for any replica.
var _ shard.Backend = (*Backend)(nil)

// Wrap returns b behind a fault gate with no faults armed.
func Wrap(b shard.Backend) *Backend { return &Backend{inner: b} }

// Inner returns the wrapped backend.
func (f *Backend) Inner() shard.Backend { return f.inner }

// Kill makes every future call fail with ErrKilled; calls already in
// flight (and views already handed out) complete against the inner
// backend.
func (f *Backend) Kill() { f.killed.Store(true) }

// Heal clears Kill and any armed KillAfterCalls.
func (f *Backend) Heal() {
	f.killed.Store(false)
	f.killAfter.Store(0)
}

// KillAfterCalls arms the gate to start failing once n more calls
// have been admitted — the scripted point for deterministic mid-load
// faults.
func (f *Backend) KillAfterCalls(n int) {
	f.killAfter.Store(f.calls.Load() + int64(n))
}

// FailViewAtCall arms the view handed out by the n-th call from now
// (1 = the next) to fail every Stats with ErrKilled, as if the shard
// died after answering that call's search. Every other view drains.
func (f *Backend) FailViewAtCall(n int) {
	f.failView.Store(f.calls.Load() + int64(n))
}

// ViewsFailed returns how many Stats calls a failing view refused.
func (f *Backend) ViewsFailed() int64 { return f.viewsFailed.Load() }

// SetDelay stalls every subsequent call by d before it reaches the
// inner backend.
func (f *Backend) SetDelay(d time.Duration) { f.delay.Store(int64(d)) }

// Calls returns how many calls reached the gate (admitted or not).
func (f *Backend) Calls() int64 { return f.calls.Load() }

// Composites returns how many searches passed the gate.
func (f *Backend) Composites() int64 { return f.composites.Load() }

// SearchesKilled returns how many searches the gate refused.
func (f *Backend) SearchesKilled() int64 { return f.searchesKilled.Load() }

// Ingests returns how many IngestBatch calls passed the gate.
func (f *Backend) Ingests() int64 { return f.ingests.Load() }

// IngestsKilled returns how many IngestBatch calls the gate refused.
func (f *Backend) IngestsKilled() int64 { return f.ingestKilled.Load() }

// gate admits or refuses one call (no caller deadline to honor).
func (f *Backend) gate() error {
	_, err := f.gateCtx(context.Background())
	return err
}

// gateCtx admits or refuses one call, honoring the caller's context
// while an armed delay stalls it, and returns the call's number.
func (f *Backend) gateCtx(ctx context.Context) (int64, error) {
	n := f.calls.Add(1)
	if d := f.delay.Load(); d > 0 {
		t := time.NewTimer(time.Duration(d))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return n, ctx.Err()
		}
	}
	if ka := f.killAfter.Load(); ka > 0 && n > ka {
		f.killed.Store(true)
	}
	if f.killed.Load() {
		return n, ErrKilled
	}
	return n, nil
}

// handOut returns the view call n hands out: v itself, or v failing its
// Stats when FailViewAtCall picked call n.
func (f *Backend) handOut(n int64, v shard.View) shard.View {
	if v == nil || n != f.failView.Load() {
		return v
	}
	return failingView{View: v, f: f}
}

// failingView is a view whose shard died after handing it out: Stats
// fails, Release still frees the inner view.
type failingView struct {
	shard.View
	f *Backend
}

// Stats implements shard.View: always ErrKilled.
func (v failingView) Stats(_ context.Context, _ []world.UserID, dst []expertise.UserStats) ([]expertise.UserStats, error) {
	v.f.viewsFailed.Add(1)
	return dst[:0], ErrKilled
}

// Search implements shard.Backend: SearchStats with the stats dropped.
func (f *Backend) Search(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate) ([]expertise.RawCandidate, int, shard.View, error) {
	rows, matched, _, v, err := f.SearchStats(ctx, terms, extended, raw, nil)
	return rows, matched, v, err
}

// SearchStats implements shard.Backend through the fault gate — the
// call the scatter-gather read path makes, counted by Composites. An
// armed delay stalls it, but the caller's deadline still wins — the
// stall resolves to ctx.Err() the moment the budget runs out.
func (f *Backend) SearchStats(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate, stats []expertise.UserStats) ([]expertise.RawCandidate, int, []expertise.UserStats, shard.View, error) {
	n, err := f.gateCtx(ctx)
	if err != nil {
		f.searchesKilled.Add(1)
		return raw[:0], 0, stats[:0], nil, err
	}
	f.composites.Add(1)
	raw, matched, stats, v, err := f.inner.SearchStats(ctx, terms, extended, raw, stats)
	return raw, matched, stats, f.handOut(n, v), err
}

// IngestBatch implements shard.Backend through the fault gate.
func (f *Backend) IngestBatch(posts []microblog.Post) error {
	if err := f.gate(); err != nil {
		f.ingestKilled.Add(1)
		return err
	}
	f.ingests.Add(1)
	return f.inner.IngestBatch(posts)
}

// Epoch implements shard.Backend through the fault gate.
func (f *Backend) Epoch() (uint64, error) {
	if err := f.gate(); err != nil {
		return 0, err
	}
	f.epochs.Add(1)
	return f.inner.Epoch()
}

// EpochIsLocal implements shard.Backend: false, so a cluster probes
// this backend's Epoch through its failure backoff like any shard that
// can fail — a local read would bypass the gate.
func (f *Backend) EpochIsLocal() bool { return false }

// Failovers implements shard.Backend, passing the inner count through
// ungated: it is a counter read, not a call to the shard.
func (f *Backend) Failovers() int64 { return f.inner.Failovers() }

// Quiesce implements shard.Backend through the fault gate.
func (f *Backend) Quiesce() error {
	if err := f.gate(); err != nil {
		return err
	}
	f.quiesces.Add(1)
	return f.inner.Quiesce()
}

// Close implements shard.Backend; it always reaches the inner backend
// (a test tearing down must not leak compactors behind a kill).
func (f *Backend) Close() error { return f.inner.Close() }
