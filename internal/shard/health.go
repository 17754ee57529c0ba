// Failure backoff for dialing and probing backends. Health is a
// per-backend decaying-backoff state machine that grants at most one
// probe per backoff window, so a dead backend costs one dial per window
// instead of one per request. transport.RemoteShard consults one as its
// dial budget (which is what bounds a dead shard's epoch samples);
// replica.Set consults one per replica when choosing a read target and
// when probing a recovering follower.
package shard

import (
	"errors"
	"sync"
	"time"
)

// ErrBackoff reports a probe suppressed because its backend is inside
// a failure-backoff window: the backend failed recently, the window
// has not expired, and this caller was not granted the one probe the
// window allows. Callers treat it exactly like the underlying failure
// it stands in for — the backend is unreachable as far as this request
// is concerned — but it costs nothing to produce.
var ErrBackoff = errors.New("shard: backend in failure backoff")

// Backoff tunes a Health state machine.
type Backoff struct {
	// Initial is the window after the first failure. Zero means 250ms.
	Initial time.Duration
	// Max caps the window growth: each consecutive failure doubles the
	// window up to Max. Zero means 15s.
	Max time.Duration
}

// DefaultBackoff returns the probing defaults: 250ms after the first
// failure, doubling to a 15s ceiling.
func DefaultBackoff() Backoff {
	return Backoff{Initial: 250 * time.Millisecond, Max: 15 * time.Second}
}

// withDefaults fills zero fields.
func (b Backoff) withDefaults() Backoff {
	if b.Initial <= 0 {
		b.Initial = 250 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 15 * time.Second
	}
	if b.Max < b.Initial {
		b.Max = b.Initial
	}
	return b
}

// Health tracks one backend's reachability as a decaying-backoff state
// machine. A healthy backend admits every probe. A failure opens a
// backoff window (Initial, doubling per consecutive failure up to Max)
// during which Allow admits nothing; when the window expires, Allow
// grants exactly one caller a probe — concurrent callers are refused,
// so a dead backend costs at most one dial per window no matter the
// request rate — and the probe's outcome (Ok or Fail) either restores
// full health or doubles the window. Safe for concurrent use.
type Health struct {
	cfg Backoff

	mu      sync.Mutex
	window  time.Duration // current backoff window; 0 = healthy
	retryAt time.Time     // gate for the next granted probe; zero = healthy
	fails   int64         // consecutive failures since the last success
}

// NewHealth returns a healthy state machine with cfg's windows (zero
// fields take the defaults).
func NewHealth(cfg Backoff) *Health {
	return &Health{cfg: cfg.withDefaults()}
}

// Allow reports whether a probe may run now; see AllowAt.
func (h *Health) Allow() bool { return h.AllowAt(time.Now()) }

// AllowAt reports whether a probe may run at time now. For a healthy
// backend it always does. Inside a backoff window it does not; at the
// window's expiry exactly one caller is granted the probe (the grant
// itself pushes the gate one window forward, so racing callers are
// refused until the granted probe reports Ok or Fail, or its window
// also lapses — a hung probe cannot wedge recovery forever).
func (h *Health) AllowAt(now time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.retryAt.IsZero() {
		return true
	}
	if now.Before(h.retryAt) {
		return false
	}
	h.retryAt = now.Add(h.window)
	return true
}

// Fail records a failed probe; see FailAt.
func (h *Health) Fail() { h.FailAt(time.Now()) }

// FailAt records a failed probe at time now: the backoff window starts
// at Initial and doubles per consecutive failure up to Max, and the
// next probe is gated a full window out.
func (h *Health) FailAt(now time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.window <= 0 {
		h.window = h.cfg.Initial
	} else if h.window < h.cfg.Max {
		h.window = min(2*h.window, h.cfg.Max)
	}
	h.fails++
	h.retryAt = now.Add(h.window)
}

// Ok records a successful probe: the backoff state decays all the way
// back to healthy, so the next failure starts again from the Initial
// window.
func (h *Health) Ok() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.window = 0
	h.retryAt = time.Time{}
	h.fails = 0
}

// Healthy reports whether the backend is outside any backoff window
// (its last probe succeeded, or it has never failed).
func (h *Health) Healthy() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.retryAt.IsZero()
}

// Failures returns the consecutive failures since the last success.
func (h *Health) Failures() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fails
}
