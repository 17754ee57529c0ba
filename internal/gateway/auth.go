package gateway

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TokenConfig is one client credential's envelope: how fast it may
// ask and how much it may ask per day.
type TokenConfig struct {
	// Rate is the sustained request rate in requests per second the
	// token refills at; Burst is the bucket capacity (defaults to
	// ceil(Rate), at least 1). Rate 0 disables rate limiting.
	Rate  float64
	Burst int
	// DailyQuota caps admitted requests per UTC day; 0 means
	// unlimited. A quota rejection names the next UTC midnight in
	// Retry-After.
	DailyQuota int64
}

// tokenState is one token's mutable limiter state: a float64 token
// bucket for rate, and a per-UTC-day admission counter for quota. One
// small mutex per token — contention is per-client, not global.
type tokenState struct {
	cfg   TokenConfig
	burst float64

	mu    sync.Mutex
	level float64   // current bucket fill, [0, burst]
	last  time.Time // last refill instant (zero until first admit)
	day   int64     // UTC day (unix seconds / 86400) of the quota window
	used  int64     // requests admitted in that window
}

// authTable maps bearer tokens to their limiter state. Immutable
// after construction; only the per-token states mutate.
type authTable struct {
	tokens map[string]*tokenState
}

func newAuthTable(tokens map[string]TokenConfig) *authTable {
	t := &authTable{tokens: make(map[string]*tokenState, len(tokens))}
	for tok, cfg := range tokens {
		burst := float64(cfg.Burst)
		if cfg.Burst <= 0 {
			// In float: an int conversion of a huge rate overflows negative.
			burst = max(1, math.Ceil(cfg.Rate))
		}
		t.tokens[tok] = &tokenState{cfg: cfg, burst: burst, level: burst}
	}
	return t
}

// lookup resolves the Authorization header ("Bearer <token>",
// case-insensitive scheme) to a token's state; nil when the header is
// missing, malformed or names an unknown token — all 401, and
// deliberately indistinguishable to the caller.
func (t *authTable) lookup(authz string) *tokenState {
	const scheme = "bearer "
	if len(authz) <= len(scheme) || !strings.EqualFold(authz[:len(scheme)], scheme) {
		return nil
	}
	return t.tokens[strings.TrimSpace(authz[len(scheme):])]
}

// admit runs one request through the token's quota and rate limiter.
// ok admits; otherwise retryAfter says how long until the same request
// would pass (the Retry-After header, rounded up to whole seconds by
// the caller) and quota distinguishes the daily cap from a rate trip.
// Quota is checked first so a quota-dead token cannot burn bucket
// tokens it will never get to spend.
func (st *tokenState) admit(now time.Time) (ok bool, retryAfter time.Duration, quota bool) {
	st.mu.Lock()
	defer st.mu.Unlock()

	day := now.Unix() / 86400
	if day != st.day {
		st.day, st.used = day, 0
	}
	if st.cfg.DailyQuota > 0 && st.used >= st.cfg.DailyQuota {
		midnight := time.Unix((day+1)*86400, 0)
		return false, midnight.Sub(now), true
	}
	if st.cfg.Rate > 0 {
		if !st.last.IsZero() {
			st.level += now.Sub(st.last).Seconds() * st.cfg.Rate
			if st.level > st.burst {
				st.level = st.burst
			}
		}
		st.last = now
		if st.level < 1 {
			wait := time.Duration((1 - st.level) / st.cfg.Rate * float64(time.Second))
			return false, wait, false
		}
		st.level--
	}
	st.used++
	return true, 0, false
}

// ParseTokens parses the command-line token table syntax:
// comma-separated "token[:rate[:burst[:daily]]]" entries, where any
// numeric field may be empty or left off for its zero (unlimited)
// value.
//
//	dev         — token "dev", no limits
//	a:100:200   — 100 rps, burst 200, no daily cap
//	ops:::1000  — no rate limit, 1000 requests per UTC day
func ParseTokens(spec string) (map[string]TokenConfig, error) {
	out := make(map[string]TokenConfig)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) > 4 {
			return nil, fmt.Errorf("gateway: token entry %q: too many fields", entry)
		}
		for len(parts) < 4 {
			parts = append(parts, "")
		}
		tok := parts[0]
		if tok == "" {
			return nil, fmt.Errorf("gateway: token entry %q: empty token", entry)
		}
		var cfg TokenConfig
		var err error
		if parts[1] != "" {
			cfg.Rate, err = strconv.ParseFloat(parts[1], 64)
			if err != nil || cfg.Rate < 0 || math.IsInf(cfg.Rate, 0) || math.IsNaN(cfg.Rate) {
				return nil, fmt.Errorf("gateway: token %q: bad rate %q", tok, parts[1])
			}
		}
		if parts[2] != "" {
			if cfg.Burst, err = strconv.Atoi(parts[2]); err != nil || cfg.Burst < 0 {
				return nil, fmt.Errorf("gateway: token %q: bad burst %q", tok, parts[2])
			}
		}
		if parts[3] != "" {
			if cfg.DailyQuota, err = strconv.ParseInt(parts[3], 10, 64); err != nil || cfg.DailyQuota < 0 {
				return nil, fmt.Errorf("gateway: token %q: bad daily quota %q", tok, parts[3])
			}
		}
		if _, dup := out[tok]; dup {
			return nil, fmt.Errorf("gateway: duplicate token %q", tok)
		}
		out[tok] = cfg
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gateway: token spec %q names no tokens", spec)
	}
	return out, nil
}
