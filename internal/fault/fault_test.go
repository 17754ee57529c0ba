package fault

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/expertise"
	"repro/internal/microblog"
	"repro/internal/shard"
	"repro/internal/world"
)

// echoServer accepts loopback connections and echoes every byte back,
// returning the listen address.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(conn, conn)
		}
	}()
	return ln.Addr().String()
}

func roundTrip(t *testing.T, c net.Conn, msg string) (string, error) {
	t.Helper()
	if _, err := c.Write([]byte(msg)); err != nil {
		return "", err
	}
	buf := make([]byte, len(msg))
	n, err := io.ReadFull(c, buf)
	return string(buf[:n]), err
}

func TestConnEchoAndFragment(t *testing.T) {
	addr := echoServer(t)
	d := NewDialer()
	d.FragmentAll()
	conn, err := d.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One byte per syscall in both directions; the payload must still
	// arrive intact.
	if got, err := roundTrip(t, conn, "hello fragmented world"); err != nil || got != "hello fragmented world" {
		t.Fatalf("fragmented echo = %q, %v", got, err)
	}
	if d.Dials() != 1 {
		t.Fatalf("Dials = %d, want 1", d.Dials())
	}
}

func TestConnTruncate(t *testing.T) {
	addr := echoServer(t)
	d := NewDialer()
	d.TruncateNext(4)
	conn, err := d.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The inbound stream dies after 4 bytes, as if the peer crashed
	// mid-frame.
	got, err := roundTrip(t, conn, "0123456789")
	if got != "0123" || !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated read = %q, %v; want \"0123\" + EOF", got, err)
	}
	d.TruncateNext(-1) // disarm: the next conn reads freely
	conn2, err := d.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if got, err := roundTrip(t, conn2, "0123456789"); err != nil || got != "0123456789" {
		t.Fatalf("disarmed echo = %q, %v", got, err)
	}
	// TruncateAll cuts the live connection too.
	d.TruncateAll(0)
	if _, err := roundTrip(t, conn2, "x"); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("TruncateAll(0) read err = %v, want EOF", err)
	}
}

// TestConnStallHonorsDeadline pins the contract the gateway's 504 path
// stands on: a stalled read with a nearer deadline fails with the
// net-stack timeout error at the deadline, not after the stall.
func TestConnStallHonorsDeadline(t *testing.T) {
	addr := echoServer(t)
	d := NewDialer()
	conn, err := d.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	d.StallAll(10 * time.Second)
	if err := conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = roundTrip(t, conn, "ping")
	elapsed := time.Since(start)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled read err = %v, want deadline exceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("stalled read took %v, want ~50ms deadline", elapsed)
	}
	// Disarm and clear the deadline: the wire heals. The echo of the
	// timed-out "ping" is still in flight — it arrives first.
	d.StallAll(0)
	if err := conn.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	stale := make([]byte, 4)
	if _, err := io.ReadFull(conn, stale); err != nil || string(stale) != "ping" {
		t.Fatalf("leftover echo = %q, %v", stale, err)
	}
	if got, err := roundTrip(t, conn, "pong"); err != nil || got != "pong" {
		t.Fatalf("healed echo = %q, %v", got, err)
	}
}

func TestDialerKillAndRefuse(t *testing.T) {
	addr := echoServer(t)
	d := NewDialer()
	conn, err := d.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d.KillAll()
	if _, err := roundTrip(t, conn, "dead"); err == nil {
		t.Fatal("killed conn still echoes")
	}
	d.RefuseDials()
	if _, err := d.Dial(addr, time.Second); !errors.Is(err, ErrKilled) {
		t.Fatalf("refused dial err = %v, want ErrKilled", err)
	}
	d.AllowDials()
	conn2, err := d.Dial(addr, time.Second)
	if err != nil {
		t.Fatalf("dial after AllowDials: %v", err)
	}
	conn2.Close()
}

// innerBackend is a minimal healthy shard.Backend recording nothing.
type innerBackend struct{ epoch uint64 }

func (b *innerBackend) Search(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate) ([]expertise.RawCandidate, int, shard.View, error) {
	return raw[:0], 0, nopView{}, nil
}
func (b *innerBackend) SearchStats(ctx context.Context, terms []string, extended bool, raw []expertise.RawCandidate, stats []expertise.UserStats) ([]expertise.RawCandidate, int, []expertise.UserStats, shard.View, error) {
	return raw[:0], 0, stats[:0], nopView{}, nil
}
func (b *innerBackend) EpochIsLocal() bool                       { return true }
func (b *innerBackend) Failovers() int64                         { return 7 }
func (b *innerBackend) IngestBatch(posts []microblog.Post) error { b.epoch++; return nil }
func (b *innerBackend) Epoch() (uint64, error)                   { return b.epoch, nil }
func (b *innerBackend) Quiesce() error                           { return nil }
func (b *innerBackend) Close() error                             { return nil }

type nopView struct{}

func (nopView) Stats(ctx context.Context, users []world.UserID, dst []expertise.UserStats) ([]expertise.UserStats, error) {
	return dst[:0], nil
}
func (nopView) Release() {}

func TestBackendGate(t *testing.T) {
	f := Wrap(&innerBackend{})
	defer f.Close()
	if f.Inner() == nil {
		t.Fatal("Inner lost the wrapped backend")
	}

	// Healthy: everything passes and is counted per op; a plain search
	// is the composite with its stats dropped, so it counts as one.
	if _, _, v, err := f.Search(context.Background(), []string{"a"}, false, nil); err != nil {
		t.Fatal(err)
	} else {
		v.Release()
	}
	if _, _, _, v, err := f.SearchStats(context.Background(), []string{"a"}, false, nil, nil); err != nil {
		t.Fatal(err)
	} else {
		v.Release()
	}
	if err := f.IngestBatch([]microblog.Post{{}}); err != nil {
		t.Fatal(err)
	}
	if err := f.IngestBatch(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Epoch(); err != nil {
		t.Fatal(err)
	}
	if err := f.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if f.Calls() != 6 || f.Composites() != 2 || f.Ingests() != 2 {
		t.Fatalf("counters: calls %d composites %d ingests %d", f.Calls(), f.Composites(), f.Ingests())
	}
	// The gate hides the inner backend's local epoch (a local read
	// would bypass it) but not its failover count, and neither is a
	// call.
	if f.EpochIsLocal() || f.Failovers() != 7 || f.Calls() != 6 {
		t.Fatalf("EpochIsLocal %v, Failovers %d, calls %d", f.EpochIsLocal(), f.Failovers(), f.Calls())
	}

	// Killed: every op is refused with ErrKilled and the refusals are
	// counted on the read/write split.
	f.Kill()
	if _, _, _, err := f.Search(context.Background(), []string{"a"}, false, nil); !errors.Is(err, ErrKilled) {
		t.Fatalf("killed Search err = %v", err)
	}
	if _, _, _, _, err := f.SearchStats(context.Background(), []string{"a"}, false, nil, nil); !errors.Is(err, ErrKilled) {
		t.Fatalf("killed SearchStats err = %v", err)
	}
	if err := f.IngestBatch([]microblog.Post{{}}); !errors.Is(err, ErrKilled) {
		t.Fatalf("killed one-post IngestBatch err = %v", err)
	}
	if err := f.IngestBatch(nil); !errors.Is(err, ErrKilled) {
		t.Fatalf("killed IngestBatch err = %v", err)
	}
	if _, err := f.Epoch(); !errors.Is(err, ErrKilled) {
		t.Fatalf("killed Epoch err = %v", err)
	}
	if err := f.Quiesce(); !errors.Is(err, ErrKilled) {
		t.Fatalf("killed Quiesce err = %v", err)
	}
	if f.SearchesKilled() != 2 || f.IngestsKilled() != 2 || f.Composites() != 2 {
		t.Fatalf("kill counters: searches %d ingests %d", f.SearchesKilled(), f.IngestsKilled())
	}
	f.Heal()
	if err := f.Quiesce(); err != nil {
		t.Fatalf("healed Quiesce err = %v", err)
	}
}

func TestBackendKillAfterCalls(t *testing.T) {
	f := Wrap(&innerBackend{})
	defer f.Close()
	f.KillAfterCalls(2)
	for i := 0; i < 2; i++ {
		if _, err := f.Epoch(); err != nil {
			t.Fatalf("call %d refused early: %v", i, err)
		}
	}
	if _, err := f.Epoch(); !errors.Is(err, ErrKilled) {
		t.Fatalf("armed kill did not fire: %v", err)
	}
}

// TestBackendDelayHonorsContext mirrors the wire-stall contract at the
// call boundary: an armed delay resolves to ctx.Err() the moment the
// caller's budget runs out.
func TestBackendDelayHonorsContext(t *testing.T) {
	f := Wrap(&innerBackend{})
	defer f.Close()
	f.SetDelay(10 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, _, err := f.Search(ctx, []string{"a"}, false, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled Search err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("stalled Search took %v, want ~50ms budget", elapsed)
	}
	f.SetDelay(0)
	if _, _, v, err := f.Search(context.Background(), []string{"a"}, false, nil); err != nil {
		t.Fatalf("healed Search err = %v", err)
	} else {
		v.Release()
	}
}

// leakRecorder stands in for a test: it collects cleanups and records
// a failure instead of stopping.
type leakRecorder struct {
	testing.TB
	cleanups []func()
	failed   string
}

func (r *leakRecorder) Helper()                        {}
func (r *leakRecorder) Cleanup(f func())               { r.cleanups = append(r.cleanups, f) }
func (r *leakRecorder) Fatalf(format string, a ...any) { r.failed = fmt.Sprintf(format, a...) }

// TestCheckLeaksCatchesLeaks pins that the teardown check fails a test
// that leaves a goroutine or a file descriptor behind, and passes one
// that releases both.
func TestCheckLeaksCatchesLeaks(t *testing.T) {
	run := func(leak bool) string {
		r := &leakRecorder{TB: t}
		CheckLeaks(r)
		stop := make(chan struct{})
		go func() { <-stop }()
		f, err := os.Open(os.Args[0])
		if err != nil {
			t.Fatal(err)
		}
		if !leak {
			close(stop)
			f.Close()
		}
		for _, c := range r.cleanups {
			c()
		}
		if leak {
			close(stop)
			f.Close()
		}
		return r.failed
	}
	if msg := run(true); !strings.Contains(msg, "goroutines") {
		t.Fatalf("a leaked goroutine and file passed the check (%q)", msg)
	}
	if msg := run(false); msg != "" {
		t.Fatalf("a clean teardown failed the check: %s", msg)
	}
}

// TestCheckLeaksSeesThroughChurn pins that the check compares
// identities, not counts: a goroutine and a file that were there before
// the check began and go away across the teardown must not hide a new
// goroutine and a new file left behind — the shape of an earlier
// test's stragglers exiting while this one leaks.
func TestCheckLeaksSeesThroughChurn(t *testing.T) {
	oldStop, oldDone := make(chan struct{}), make(chan struct{})
	go func() { <-oldStop; close(oldDone) }()
	old, err := os.Open(os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	r := &leakRecorder{TB: t}
	CheckLeaks(r)
	stop := make(chan struct{})
	go func() { <-stop }()
	f, err := os.Open(os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	close(oldStop)
	<-oldDone
	old.Close()
	for _, c := range r.cleanups {
		c()
	}
	close(stop)
	f.Close()
	if !strings.Contains(r.failed, "goroutines") || !strings.Contains(r.failed, os.Args[0]) {
		t.Fatalf("a leaked goroutine and file hid behind ones that went away (%q)", r.failed)
	}
}
