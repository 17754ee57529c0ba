package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	// Every handle method must tolerate a nil receiver — this is the
	// whole un-instrumented fast path.
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter loaded non-zero")
	}
	var g *Gauge
	g.Set(5)
	g.Add(5)
	if g.Load() != 0 {
		t.Fatal("nil gauge loaded non-zero")
	}
	var h *Histogram
	h.Observe(5)
	if h.Count() != 0 {
		t.Fatal("nil histogram counted")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot counted")
	}
	var l *SlowLog
	l.Record(QueryTrace{TotalNS: 1})
	if traces, total := l.Since(0); traces != nil || total != 0 || l.Snapshot() != nil {
		t.Fatal("nil slow log recorded")
	}

	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry returned non-nil handle")
	}
	r.RegisterFunc("x", func() int64 { return 1 })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot non-nil")
	}
	if out := r.WriteMetrics(nil); len(out) != 0 {
		t.Fatalf("nil registry wrote metrics: %q", out)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
		{1<<62 + 1, 63}, // saturates into the top bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramQuantileMax(t *testing.T) {
	var h Histogram
	// 90 fast observations around 100ns, 10 slow around 1ms.
	for i := 0; i < 90; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	// 100 lands in [64,128) → upper bound 128; 1e6 in [2^19,2^20) → 2^20.
	if p50 := s.Quantile(0.50); p50 != 128 {
		t.Errorf("p50 = %d, want 128", p50)
	}
	if p99 := s.Quantile(0.99); p99 != 1<<20 {
		t.Errorf("p99 = %d, want %d", p99, 1<<20)
	}
	if max := s.Max(); max != 1<<20 {
		t.Errorf("max = %d, want %d", max, 1<<20)
	}
	// Quantile bounds clamp rather than panic.
	if lo := s.Quantile(-1); lo != 128 {
		t.Errorf("q(-1) = %d, want 128", lo)
	}
	if hi := s.Quantile(2); hi != 1<<20 {
		t.Errorf("q(2) = %d, want %d", hi, 1<<20)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Max() != 0 || s.Count != 0 {
		t.Fatal("empty histogram reported non-zero statistics")
	}
}

// TestHistogramConcurrentConserved hammers one histogram from many
// goroutines and checks no observation is lost — the acceptance bar for
// the lock-free recording path (run under -race in CI).
func TestHistogramConcurrentConserved(t *testing.T) {
	const goroutines = 8
	const perG = 10_000
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Spread across buckets so the adds contend on several words.
				h.Observe(int64(1) << uint((g*perG+i)%20))
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d (observations lost)", got, goroutines*perG)
	}
	s := h.Snapshot()
	var sum int64
	for _, b := range s.Buckets {
		sum += b
	}
	if sum != s.Count || sum != goroutines*perG {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

// TestCounterConcurrentConserved does the same for counters and gauges
// shared through the registry: concurrent get-or-create must converge
// on one underlying atomic.
func TestCounterConcurrentConserved(t *testing.T) {
	const goroutines = 8
	const perG = 10_000
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("c") != r.Counter("c") {
		t.Fatal("same-name counters are distinct")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same-name gauges are distinct")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same-name histograms are distinct")
	}
	// Distinct names are distinct handles.
	if r.Counter("c") == r.Counter("c2") {
		t.Fatal("distinct-name counters are shared")
	}
}

func TestSnapshotAndWriteMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("zebra_total").Add(3)
	r.Gauge("apple_level").Set(-2)
	h := r.Histogram("req_ns")
	h.Observe(100) // one observation in [64,128)
	r.RegisterFunc("callback_value", func() int64 { return 11 })

	got := string(r.WriteMetrics(nil))
	want := strings.Join([]string{
		"apple_level -2",
		"callback_value 11",
		"req_ns_count 1",
		"req_ns_max 128",
		"req_ns_p50 128",
		"req_ns_p99 128",
		"zebra_total 3",
	}, "\n") + "\n"
	if got != want {
		t.Fatalf("WriteMetrics:\n got %q\nwant %q", got, want)
	}

	// Re-registering a func replaces it.
	r.RegisterFunc("callback_value", func() int64 { return 12 })
	for _, m := range r.Snapshot() {
		if m.Name == "callback_value" && m.Value != 12 {
			t.Fatalf("re-registered callback read %d, want 12", m.Value)
		}
	}
}

// TestSnapshotCallbackMayUseRegistry guards against the callback
// deadlock: RegisterFunc callbacks run outside the registry lock, so a
// callback reading another registry handle must not self-deadlock.
func TestSnapshotCallbackMayUseRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("base").Add(5)
	r.RegisterFunc("derived", func() int64 { return r.Counter("base").Load() * 2 })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, m := range r.Snapshot() {
			if m.Name == "derived" && m.Value != 10 {
				t.Errorf("derived = %d, want 10", m.Value)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Snapshot deadlocked on a callback that re-enters the registry")
	}
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(3)
	for i := 0; i < 5; i++ {
		l.Record(QueryTrace{Query: fmt.Sprintf("q%d", i), TotalNS: int64(i)})
	}
	if _, got := l.Since(0); got != 5 {
		t.Fatalf("total = %d, want 5", got)
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring kept %d, want 3", len(snap))
	}
	// Newest first: q4, q3, q2 survive; q0/q1 evicted.
	for i, want := range []string{"q4", "q3", "q2"} {
		if snap[i].Query != want {
			t.Fatalf("snapshot[%d] = %q, want %q (order %v)", i, snap[i].Query, want, snap)
		}
	}
}

// TestSlowLogZeroThresholdKeepsAll: the ring has no latency threshold —
// a zero-latency trace is kept like any other — and its size clamps to
// at least 1.
func TestSlowLogZeroThresholdKeepsAll(t *testing.T) {
	l := NewSlowLog(0) // size clamps to 1
	l.Record(QueryTrace{Query: "a", TotalNS: 0})
	l.Record(QueryTrace{Query: "b", TotalNS: 0})
	if _, total := l.Since(0); total != 2 {
		t.Fatalf("total = %d, want 2", total)
	}
	snap := l.Snapshot()
	if len(snap) != 1 || snap[0].Query != "b" {
		t.Fatalf("snapshot = %v, want just b", snap)
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Record(QueryTrace{TotalNS: int64(i)})
			}
		}()
	}
	wg.Wait()
	if _, total := l.Since(0); total != 4000 {
		t.Fatalf("total = %d, want 4000", total)
	}
	if len(l.Snapshot()) != 8 {
		t.Fatalf("ring = %d, want 8", len(l.Snapshot()))
	}
}

// TestSlowLogSinceExactlyOnce races writers against a reader that
// passes each total back: every trace must come back exactly once. The
// ring is larger than the trace count, so none is evicted unread. A
// total read apart from the traces shifts the newest-first window by
// whatever lands in between, repeating one trace and dropping another.
func TestSlowLogSinceExactlyOnce(t *testing.T) {
	const writers, perWriter = 8, 250
	l := NewSlowLog(4096)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Record(QueryTrace{Query: fmt.Sprintf("w%d-%d", w, i)})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	seen := make(map[string]int)
	var total int64
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one more pass collects the stragglers
		default:
		}
		var traces []QueryTrace
		traces, total = l.Since(total)
		for _, tr := range traces {
			seen[tr.Query]++
		}
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("reader saw %d distinct traces, want %d", len(seen), writers*perWriter)
	}
	for q, n := range seen {
		if n != 1 {
			t.Fatalf("trace %s came back %d times", q, n)
		}
	}
}
