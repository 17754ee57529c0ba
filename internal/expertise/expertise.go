// Package expertise implements the paper's baseline expert detector: the
// production simplification of Pal & Counts (WSDM'11) described in
// Section 3. Candidate selection takes the authors of matching tweets
// and the users mentioned in them; ranking uses three features —
// topical signal (TS), mention impact (MI) and retweet impact (RI) —
// log-transformed (the features are log-normally distributed),
// z-score-normalized over the candidate set, and aggregated with a
// weighted sum. A minimum aggregate z-score rejects weak candidates
// (the precision/recall knob of Figure 9).
package expertise

import (
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/microblog"
	"repro/internal/world"
)

// Params tunes the detector.
type Params struct {
	// WeightTS, WeightMI and WeightRI aggregate the normalized features.
	// The paper defers to "the authors' guidelines"; Pal & Counts weigh
	// the topical signal highest, which these defaults encode.
	WeightTS, WeightMI, WeightRI float64
	// WeightHT, WeightGI and WeightAV enable the extended features from
	// the original Pal & Counts feature set that the e# paper dropped
	// for production ("they evaluate a dozen features; we kept those
	// which they present as important"). All default to zero, matching
	// the paper; ExtendedParams turns them on for the ablation suite.
	//
	//   HT — hashtag ratio of the user's on-topic posts
	//   GI — graph influence (log follower count)
	//   AV — average retweets per on-topic post
	WeightHT, WeightGI, WeightAV float64
	// MinZScore rejects candidates whose aggregate score falls below it.
	MinZScore float64
	// MaxResults caps the returned list (the crowdsourcing study used up
	// to 15 experts per algorithm). Zero means unlimited.
	MaxResults int
	// Epsilon smooths the log transform of zero-valued features.
	Epsilon float64
}

// DefaultParams returns the defaults used throughout the reproduction.
func DefaultParams() Params {
	return Params{
		WeightTS:   0.5,
		WeightMI:   0.25,
		WeightRI:   0.25,
		MinZScore:  0,
		MaxResults: 15,
		Epsilon:    1e-4,
	}
}

// ExtendedParams returns the defaults with the extended feature set
// enabled — the configuration the e# paper simplified away.
func ExtendedParams() Params {
	p := DefaultParams()
	p.WeightTS, p.WeightMI, p.WeightRI = 0.4, 0.2, 0.2
	p.WeightHT, p.WeightGI, p.WeightAV = 0.05, 0.1, 0.05
	return p
}

// Expert is one ranked result.
type Expert struct {
	User world.UserID
	// Score is the aggregate z-score used for ranking and thresholding.
	Score float64
	// TS, MI and RI are the raw feature values (before log/z transform).
	TS, MI, RI float64
	// HT, GI and AV are the extended raw features (zero-weighted by
	// default; see Params).
	HT, GI, AV float64
	// OnTopicTweets is the number of matching tweets the user authored.
	OnTopicTweets int
}

// counters accumulates the per-user raw feature inputs for one query.
type counters struct {
	tweets, mentions, retweets, hashtagged int
	seen                                   bool
}

// scratch is the reusable per-call arena of candidate extraction: a
// dense counter table indexed by UserID plus the list of users actually
// touched, so resets cost O(touched) instead of O(users), the buffer
// Source.Features decodes mentions into and the one the touched users'
// denominators are fetched into.
type scratch struct {
	byUser   []counters
	touched  []world.UserID
	mentions []world.UserID
	stats    []UserStats // the touched users' denominators
}

// at returns u's counters, recording the first touch.
func (s *scratch) at(u world.UserID) *counters {
	c := &s.byUser[u]
	if !c.seen {
		c.seen = true
		s.touched = append(s.touched, u)
	}
	return c
}

// Source is the read-only index view candidate extraction runs
// against: per-post ranking features plus the per-user denominators of
// the three ranking features, fetched in one batch. A frozen
// *microblog.Corpus satisfies it directly; a live multi-segment
// snapshot (internal/ingest) satisfies it by dispatching to the
// segment that holds the post and by summing base, sealed-segment and
// active-tail counters — the cross-segment ranking path of the
// streaming index.
type Source interface {
	// Features is the one per-post accessor: the post's author, retweet
	// count, whether it carries a hashtag (filled only when hashtag is
	// set) and the users it mentions. scratch points at a caller buffer
	// a source may decode the mentions into (capacity reused, contents
	// discarded, the possibly grown buffer stored back); the returned
	// mentions alias that buffer or the source's own storage, so they
	// are read-only and valid only until the next Features call with
	// the same scratch.
	Features(id microblog.TweetID, hashtag bool, scratch *[]world.UserID) (author world.UserID, retweets int, hashtagged bool, mentions []world.UserID)
	// StatsInto writes the denominator triple of each of users into
	// dst (capacity reused, contents discarded) and returns the filled
	// buffer, positionally aligned with users: every post u authored
	// (TS), every mention of u (MI), the retweets of all of u's posts
	// (RI). users must be strictly ascending.
	StatsInto(dst []UserStats, users []world.UserID) []UserStats
	// NumUsers is the size of the user universe; ids are below it.
	NumUsers() int
	// World returns the generating world the user ids refer to.
	World() *world.World
}

// Ranker is the source-independent scoring core: candidate extraction
// and ranking under one parameter set, with a pooled per-query arena.
// One Ranker serves any number of Sources over the same user universe
// (the live index passes a fresh snapshot per query), so it is the
// piece Detector and the streaming path share. Safe for concurrent use.
type Ranker struct {
	params   Params
	pool     sync.Pool // of *scratch sized to the user universe
	rankPool sync.Pool // of *rankScratch
}

// rankScratch is the reusable per-call arena of Rank: three feature
// columns (filled with log features, standardized in place, then
// refilled for the extended set) and the scored working copy of the
// candidate pool. Nothing in it outlives the call — Rank returns a
// fresh slice, which the serving cache keeps.
type rankScratch struct {
	cols   [3][]float64
	scored []Expert
}

// columns returns the three feature columns cut to n entries, growing
// them as needed; their contents are stale.
func (s *rankScratch) columns(n int) (a, b, c []float64) {
	for i := range s.cols {
		s.cols[i] = slices.Grow(s.cols[i][:0], n)[:n]
	}
	return s.cols[0], s.cols[1], s.cols[2]
}

// NewRanker builds a ranker for a universe of numUsers users.
// Zero-valued weights are allowed (a feature can be ablated away); if
// all three are zero the defaults are restored.
func NewRanker(numUsers int, params Params) *Ranker {
	if params.WeightTS == 0 && params.WeightMI == 0 && params.WeightRI == 0 {
		d := DefaultParams()
		params.WeightTS, params.WeightMI, params.WeightRI = d.WeightTS, d.WeightMI, d.WeightRI
	}
	if params.Epsilon <= 0 {
		params.Epsilon = 1e-4
	}
	r := &Ranker{params: params}
	r.pool.New = func() any {
		return &scratch{byUser: make([]counters, numUsers)}
	}
	r.rankPool.New = func() any { return &rankScratch{} }
	return r
}

// Params returns the ranker's configuration.
func (r *Ranker) Params() Params { return r.params }

// Detector ranks expert candidates over a corpus. It is safe for
// concurrent use: the corpus is read-only and per-query scratch state
// is pooled per goroutine.
type Detector struct {
	corpus *microblog.Corpus
	ranker *Ranker
}

// New builds a detector over a frozen corpus (see NewRanker for the
// weight handling).
func New(corpus *microblog.Corpus, params Params) *Detector {
	return &Detector{corpus: corpus, ranker: NewRanker(corpus.NumUsers(), params)}
}

// Params returns the detector's configuration.
func (d *Detector) Params() Params { return d.ranker.params }

// Ranker returns the underlying scoring core.
func (d *Detector) Ranker() *Ranker { return d.ranker }

// Search returns the ranked experts for a query, or nil when no tweet
// matches. The result is sorted by descending score, ties broken by
// user id, truncated to MaxResults and thresholded at MinZScore.
func (d *Detector) Search(query string) []Expert {
	candidates := d.Candidates(query)
	return d.ranker.Rank(candidates)
}

// Candidates runs candidate selection and feature extraction without
// normalization or thresholding.
func (d *Detector) Candidates(query string) []Expert {
	return d.CandidatesFromTweets(d.corpus.Match(query))
}

// CandidatesFromTweets extracts candidates and raw features from an
// explicit set of matching tweets. Exposed so the e# pipeline can union
// the matched-tweet sets of all expanded terms first (Section 5: "union
// the results and rank the experts") and then extract features exactly
// once per tweet — no double counting when two expansion terms match the
// same post.
func (d *Detector) CandidatesFromTweets(matched []microblog.TweetID) []Expert {
	return d.ranker.CandidatesFrom(d.corpus, matched)
}

// accumulate is the extraction loop, the only reader of per-post
// features: it sums the matched posts' numerators by user into a pooled
// arena and returns it with touched in ascending user order. The caller
// reads the counters out and hands the arena back through release.
func (r *Ranker) accumulate(src Source, matched []microblog.TweetID, extended bool) *scratch {
	s := r.pool.Get().(*scratch)
	for _, tid := range matched {
		author, retweets, hashtagged, mentions := src.Features(tid, extended, &s.mentions)
		a := s.at(author)
		a.tweets++
		a.retweets += retweets
		if hashtagged {
			a.hashtagged++
		}
		for _, m := range mentions {
			s.at(m).mentions++
		}
	}
	slices.Sort(s.touched)
	return s
}

// release resets the arena in O(touched) — no zeroing of the whole
// user table — and returns it to the pool.
func (r *Ranker) release(s *scratch) {
	for _, u := range s.touched {
		s.byUser[u] = counters{}
	}
	s.touched = s.touched[:0]
	r.pool.Put(s)
}

// CandidatesFrom extracts candidates and raw features from an explicit
// set of matching tweet ids resolved against src. The live index calls
// it with a multi-segment snapshot whose matched ids span the base
// corpus, sealed segments and the active tail.
func (r *Ranker) CandidatesFrom(src Source, matched []microblog.TweetID) []Expert {
	if len(matched) == 0 {
		return nil
	}
	extended := r.extendedFeatures()
	s := r.accumulate(src, matched, extended)
	defer r.release(s)
	s.stats = src.StatsInto(s.stats, s.touched)
	out := make([]Expert, 0, len(s.touched))
	for i, u := range s.touched {
		c, st := &s.byUser[u], &s.stats[i]
		e := Expert{User: u, OnTopicTweets: c.tweets}
		if st.Tweets > 0 {
			e.TS = float64(c.tweets) / float64(st.Tweets)
		}
		if st.Mentions > 0 {
			e.MI = float64(c.mentions) / float64(st.Mentions)
		}
		if st.Retweets > 0 {
			e.RI = float64(c.retweets) / float64(st.Retweets)
		}
		if extended {
			if c.tweets > 0 {
				e.HT = float64(c.hashtagged) / float64(c.tweets)
				e.AV = float64(c.retweets) / float64(c.tweets)
			}
			e.GI = math.Log1p(float64(src.World().User(u).Followers))
		}
		out = append(out, e)
	}
	return out
}

// Rank normalizes, scores, thresholds and sorts a candidate pool. It is
// exported for the e# pipeline, which unions candidate pools across the
// expanded terms first (Section 5: "union the results and rank the
// experts").
func (d *Detector) Rank(candidates []Expert) []Expert {
	return d.ranker.Rank(candidates)
}

// Rank normalizes, scores, thresholds and sorts a candidate pool. The
// work runs in pooled scratch; the returned slice is the call's one
// allocation (none for an empty result) and belongs to the caller.
func (r *Ranker) Rank(candidates []Expert) []Expert {
	if len(candidates) == 0 {
		return nil
	}
	n := len(candidates)
	s := r.rankPool.Get().(*rankScratch)
	defer r.rankPool.Put(s)
	p := &r.params
	zTS, zMI, zRI := s.columns(n)
	for i := range candidates {
		e := &candidates[i]
		zTS[i] = math.Log(e.TS + p.Epsilon)
		zMI[i] = math.Log(e.MI + p.Epsilon)
		zRI[i] = math.Log(e.RI + p.Epsilon)
	}
	zscores(zTS)
	zscores(zMI)
	zscores(zRI)

	wSum := p.WeightTS + p.WeightMI + p.WeightRI +
		p.WeightHT + p.WeightGI + p.WeightAV
	s.scored = append(s.scored[:0], candidates...)
	scored := s.scored
	for i := range scored {
		scored[i].Score = (p.WeightTS*zTS[i] +
			p.WeightMI*zMI[i] +
			p.WeightRI*zRI[i]) / wSum
	}
	if p.WeightHT != 0 || p.WeightGI != 0 || p.WeightAV != 0 {
		// The base columns are spent; the extended set reuses them.
		zHT, zGI, zAV := zTS, zMI, zRI
		for i := range candidates {
			e := &candidates[i]
			zHT[i] = math.Log(e.HT + p.Epsilon)
			zGI[i] = e.GI // already log follower count
			zAV[i] = math.Log(e.AV + p.Epsilon)
		}
		zscores(zHT)
		zscores(zGI)
		zscores(zAV)
		for i := range scored {
			scored[i].Score += (p.WeightHT*zHT[i] +
				p.WeightGI*zGI[i] +
				p.WeightAV*zAV[i]) / wSum
		}
	}

	// Threshold, then select. When MaxResults caps the output, a bounded
	// top-k heap avoids fully sorting the candidate pool; the ranking
	// order (descending score, ties toward the smaller user id) is total,
	// so the selection is bit-identical to sort-then-truncate.
	kept := scored[:0]
	for _, e := range scored {
		if e.Score >= p.MinZScore {
			kept = append(kept, e)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	if k := p.MaxResults; k > 0 && len(kept) > k {
		kept = selectTopK(kept, k)
	} else {
		slices.SortFunc(kept, func(a, b Expert) int {
			switch {
			case rankedBefore(&a, &b):
				return -1
			case rankedBefore(&b, &a):
				return 1
			}
			return 0
		})
	}
	out := make([]Expert, len(kept))
	copy(out, kept)
	return out
}

// rankedBefore is the total ranking order: descending score, ties
// broken toward the smaller user id.
func rankedBefore(a, b *Expert) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.User < b.User
}

// selectTopK returns the k best experts of pool under rankedBefore, in
// rank order, without sorting the whole pool. It maintains a size-k
// heap whose root is the worst retained element; the final heap-sort
// pass emits the survivors best-first. pool is reordered in place and
// the result aliases its front.
func selectTopK(pool []Expert, k int) []Expert {
	h := pool[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftWorstDown(h, i)
	}
	for i := k; i < len(pool); i++ {
		if rankedBefore(&pool[i], &h[0]) {
			h[0] = pool[i]
			siftWorstDown(h, 0)
		}
	}
	for n := k - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftWorstDown(h[:n], 0)
	}
	return h
}

// siftWorstDown restores the heap property (every parent ranks after
// its children) below index i.
func siftWorstDown(h []Expert, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		worst := l
		if r := l + 1; r < len(h) && rankedBefore(&h[l], &h[r]) {
			worst = r
		}
		if !rankedBefore(&h[i], &h[worst]) {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// zscores standardizes a vector in place: (x - mean) / stddev. A zero
// standard deviation (all candidates identical) yields all-zero scores.
func zscores(xs []float64) {
	n := float64(len(xs))
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / n
	var sq float64
	for _, x := range xs {
		d := x - mean
		sq += d * d
	}
	std := math.Sqrt(sq / n)
	if std == 0 {
		clear(xs)
		return
	}
	for i, x := range xs {
		xs[i] = (x - mean) / std
	}
}

// UnionTweets merges several sorted matched-tweet id lists into one
// sorted, duplicate-free list. It is the "union the results" step of
// the e# online stage. The online hot path uses the buffer-reusing
// MergeTweetsInto instead; this map-based form is kept as the
// reference implementation the equivalence tests check against.
func UnionTweets(lists ...[]microblog.TweetID) []microblog.TweetID {
	seen := map[microblog.TweetID]bool{}
	var out []microblog.TweetID
	for _, l := range lists {
		for _, id := range l {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MergeTweets k-way merges ascending-sorted tweet id lists into one
// sorted, duplicate-free list appended to dst (reusing its capacity,
// discarding its contents). It produces exactly UnionTweets' output
// without the per-id map. Hot-path callers should prefer
// MergeTweetsInto, which also reuses the merge-frontier buffer.
func MergeTweets(dst []microblog.TweetID, lists ...[]microblog.TweetID) []microblog.TweetID {
	dst, _ = MergeTweetsInto(dst, nil, lists...)
	return dst
}

// MergeTweetsInto is the scratch-reusing form of MergeTweets: frontier
// is a reusable buffer for the merge's head table (its contents are
// discarded, its capacity reused, and the possibly-grown buffer is
// returned for the next call). The merge itself is a min-heap over the
// list heads: ids come out ascending, so equal ids from different
// lists arrive consecutively and deduplicate against the last emitted
// id.
func MergeTweetsInto(dst []microblog.TweetID, frontier [][]microblog.TweetID,
	lists ...[]microblog.TweetID) ([]microblog.TweetID, [][]microblog.TweetID) {

	dst = dst[:0]
	// Drop empty lists; single-list unions degenerate to a copy.
	heads := frontier[:0]
	for _, l := range lists {
		if len(l) > 0 {
			heads = append(heads, l)
		}
	}
	frontier = heads
	switch len(heads) {
	case 0:
		return dst, frontier
	case 1:
		return append(dst, heads[0]...), frontier
	}
	// Min-heap over the first element of each remaining list.
	less := func(a, b []microblog.TweetID) bool { return a[0] < b[0] }
	sift := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(heads) {
				return
			}
			min := l
			if r := l + 1; r < len(heads) && less(heads[r], heads[l]) {
				min = r
			}
			if !less(heads[min], heads[i]) {
				return
			}
			heads[i], heads[min] = heads[min], heads[i]
			i = min
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		sift(i)
	}
	for len(heads) > 0 {
		id := heads[0][0]
		if len(dst) == 0 || dst[len(dst)-1] != id {
			dst = append(dst, id)
		}
		if rest := heads[0][1:]; len(rest) > 0 {
			heads[0] = rest
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		sift(0)
	}
	return dst, frontier
}
