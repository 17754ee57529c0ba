package shard_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestHealthWindowsDoubleAndDecay pins the backoff state machine with
// explicit clocks: windows start at Initial, double per consecutive
// failure up to Max, grant exactly one probe at each expiry, and decay
// all the way back to healthy on one success.
func TestHealthWindowsDoubleAndDecay(t *testing.T) {
	cfg := shard.Backoff{Initial: 100 * time.Millisecond, Max: 350 * time.Millisecond}
	h := shard.NewHealth(cfg)
	t0 := time.Unix(1000, 0)

	if !h.Healthy() || !h.AllowAt(t0) {
		t.Fatal("fresh health must allow everything")
	}
	h.FailAt(t0)
	if h.Healthy() {
		t.Fatal("healthy after a failure")
	}
	if h.AllowAt(t0.Add(50 * time.Millisecond)) {
		t.Fatal("probe allowed inside the initial window")
	}
	if !h.AllowAt(t0.Add(110 * time.Millisecond)) {
		t.Fatal("probe refused after the initial window expired")
	}
	// The granted probe fails: the window doubles to 200ms.
	t1 := t0.Add(110 * time.Millisecond)
	h.FailAt(t1)
	if h.AllowAt(t1.Add(150 * time.Millisecond)) {
		t.Fatal("probe allowed inside the doubled window")
	}
	if !h.AllowAt(t1.Add(210 * time.Millisecond)) {
		t.Fatal("probe refused after the doubled window")
	}
	// Two more failures: 350ms cap (not 400, not 800).
	t2 := t1.Add(210 * time.Millisecond)
	h.FailAt(t2)
	t3 := t2.Add(400 * time.Millisecond)
	if !h.AllowAt(t3) {
		t.Fatal("probe refused after the capped window")
	}
	h.FailAt(t3)
	if h.AllowAt(t3.Add(349 * time.Millisecond)) {
		t.Fatal("window exceeded the Max cap")
	}
	if got := h.Failures(); got != 4 {
		t.Fatalf("consecutive failures %d, want 4", got)
	}
	// One success decays everything back to healthy.
	h.Ok()
	if !h.Healthy() || h.Failures() != 0 {
		t.Fatal("Ok did not restore full health")
	}
	h.FailAt(t3)
	if h.AllowAt(t3.Add(50 * time.Millisecond)) {
		t.Fatal("window after recovery did not restart from Initial")
	}
	if !h.AllowAt(t3.Add(110 * time.Millisecond)) {
		t.Fatal("restarted Initial window refused its probe")
	}
}

// TestHealthOneProbePerWindow pins the concurrency contract the
// dial-counting tests rely on: when a window expires, exactly one of
// many racing callers is granted the probe.
func TestHealthOneProbePerWindow(t *testing.T) {
	h := shard.NewHealth(shard.Backoff{Initial: time.Hour, Max: time.Hour})
	t0 := time.Unix(2000, 0)
	h.FailAt(t0)

	expiry := t0.Add(time.Hour + time.Second)
	const callers = 32
	granted := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer wg.Done()
			if h.AllowAt(expiry) {
				mu.Lock()
				granted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if granted != 1 {
		t.Fatalf("%d racing callers were granted probes, want exactly 1", granted)
	}
}

// TestHealthZeroConfigDefaults pins that a zero Backoff takes the
// documented defaults instead of a zero-length (always-open) window.
func TestHealthZeroConfigDefaults(t *testing.T) {
	h := shard.NewHealth(shard.Backoff{})
	t0 := time.Unix(3000, 0)
	h.FailAt(t0)
	if h.AllowAt(t0.Add(100 * time.Millisecond)) {
		t.Fatal("zero-config window shorter than the 250ms default")
	}
	if !h.AllowAt(t0.Add(300 * time.Millisecond)) {
		t.Fatal("zero-config window longer than the 250ms default")
	}
}

// TestHealthFlapDuringMigration pins the Health/Backoff contract a
// retrying drain leans on when a shard flaps mid-migration: however
// many handoff retries hammer AllowAt inside one backoff window,
// exactly one is granted the probe per window; each failed probe
// doubles the window; and the first success restores full health so
// the drain resumes at line rate. (Drain streams consult the same
// per-backend Health the epoch sampler uses, so a flapping shard
// costs one dial per window, not one per page retry.)
func TestHealthFlapDuringMigration(t *testing.T) {
	h := shard.NewHealth(shard.Backoff{Initial: 100 * time.Millisecond, Max: time.Second})
	t0 := time.Unix(1000, 0)

	h.FailAt(t0) // the shard flaps as the drain starts
	if h.Healthy() {
		t.Fatal("healthy immediately after a failure")
	}
	if h.AllowAt(t0.Add(50 * time.Millisecond)) {
		t.Fatal("probe granted inside the backoff window")
	}

	// A drain retry loop plus concurrent epoch samplers all poll at
	// window expiry: exactly one caller wins the probe.
	granted := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	at := t0.Add(101 * time.Millisecond)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if h.AllowAt(at) {
				mu.Lock()
				granted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if granted != 1 {
		t.Fatalf("%d probes granted at window expiry, want exactly 1", granted)
	}

	// The granted probe fails: the window doubles, and the whole next
	// window grants nothing — the retrying drain is refused cheaply.
	h.FailAt(at)
	if h.AllowAt(at.Add(150 * time.Millisecond)) {
		t.Fatal("probe granted inside the doubled window")
	}
	if !h.AllowAt(at.Add(201 * time.Millisecond)) {
		t.Fatal("no probe granted after the doubled window expired")
	}
	if h.Failures() != 2 {
		t.Fatalf("recorded %d failures, want 2", h.Failures())
	}

	// The flap ends: one success restores full health and the drain's
	// next page is admitted immediately.
	h.Ok()
	if !h.Healthy() || !h.AllowAt(at.Add(202*time.Millisecond)) || h.Failures() != 0 {
		t.Fatal("success did not restore full health")
	}
}
