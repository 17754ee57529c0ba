// Multi-source candidate extraction: the scatter-gather primitives the
// sharded live index (internal/shard, core.ShardedLiveDetector) builds
// on. A sharded query matches tweets independently on every shard and
// must still rank bit-identically to a single-node search over the
// union of the shards' content. Finished features cannot be merged
// after the fact — TS, MI and RI are ratios, and a user's mention
// counts span shards (a post mentioning u lives on its *author's*
// shard, and may not even match the query there) — so the scatter
// stage extracts raw integer numerators per shard (RawCandidatesInto)
// and the gather stage sums numerators per user, sums each denominator
// across every source (candidate or not, a user's denominators live
// partly on every shard), and performs each floating-point division
// exactly once, globally (MergeRawCandidates). Integer addition is
// associative, so the summed inputs equal the single-node inputs
// exactly, and the finalize math mirrors CandidatesFrom operation for
// operation.

package expertise

import (
	"math"

	"repro/internal/microblog"
	"repro/internal/world"
)

// RawCandidate is one user's un-finalized ranking numerators from a
// single source (shard): integer feature counts accumulated over that
// source's matched tweets. All fields are additive, so raw candidates
// for the same user from several shards merge exactly by summation.
// Denominators are deliberately absent — they are summed across every
// source at merge time, because a user's totals (mentions especially)
// live partly on shards where the user never surfaced as a candidate.
type RawCandidate struct {
	User world.UserID
	// Tweets, Mentions and Retweets are the TS/MI/RI numerators over
	// this source's matched tweets; Hashtagged backs the extended HT
	// feature and is only filled when an extended weight is set.
	Tweets, Mentions, Retweets, Hashtagged int
}

// UserStats is one user's feature denominators contributed by a single
// source: authored tweets, mentions received, retweets received. Like
// RawCandidate the fields are additive integers, so per-shard triples
// sum exactly across any partition — they are the second half of the
// scatter-gather wire contract (a shard reports numerators for its
// candidates and, on request, denominators for any user list). It is
// microblog's type, so a corpus answers Source.StatsInto directly.
type UserStats = microblog.UserStats

// RawCandidatesInto extracts raw candidates from an explicit set of
// matched tweet ids resolved against src, appending to dst (reusing its
// capacity, discarding its contents) sorted by ascending user id. It is
// the per-shard scatter stage: each shard's extraction reads only that
// shard's snapshot, so shards proceed concurrently with no shared
// state. Safe for concurrent use (the per-call arena is pooled).
func (r *Ranker) RawCandidatesInto(dst []RawCandidate, src Source, matched []microblog.TweetID) []RawCandidate {
	return r.RawCandidatesModeInto(dst, src, matched, r.extendedFeatures())
}

// extendedFeatures reports whether any extended feature weight is set,
// i.e. whether extraction must also count hashtagged posts.
func (r *Ranker) extendedFeatures() bool {
	return r.params.WeightHT != 0 || r.params.WeightAV != 0 || r.params.WeightGI != 0
}

// RawCandidatesModeInto is RawCandidatesInto with the extended-feature
// collection made explicit. A transport.ShardServer extracts on behalf
// of a remote coordinator whose parameter set it does not share, so the
// request carries the flag instead of deriving it from local weights.
func (r *Ranker) RawCandidatesModeInto(dst []RawCandidate, src Source, matched []microblog.TweetID, extended bool) []RawCandidate {
	dst = dst[:0]
	if len(matched) == 0 {
		return dst
	}
	s := r.accumulate(src, matched, extended)
	defer r.release(s)
	for _, u := range s.touched {
		c := &s.byUser[u]
		dst = append(dst, RawCandidate{
			User:       u,
			Tweets:     c.tweets,
			Mentions:   c.mentions,
			Retweets:   c.retweets,
			Hashtagged: c.hashtagged,
		})
	}
	return dst
}

// MergeRawCandidates is the gather stage: it k-way merges per-shard raw
// candidate lists (each sorted by ascending user id, as
// RawCandidatesInto emits them; lists[i] must be extracted from
// srcs[i]), sums the numerators of users present on several shards,
// sums each user's feature denominators across every source — a user's
// authored-tweet and retweet totals live on the author's home shard,
// but mention totals are spread over every shard that holds a post
// mentioning them — and finalizes into the candidate pool Rank
// expects, appended to dst (capacity reused, contents discarded) in
// ascending user order, the same order CandidatesFrom produces and
// Rank's z-score sums depend on. With integer sums equal to the
// single-node counters and one global division per feature, the merged
// pool is bit-identical to a single-node extraction over the union of
// the sources' content.
func (r *Ranker) MergeRawCandidates(dst []Expert, srcs []Source, lists ...[]RawCandidate) []Expert {
	merged := MergeRawNumerators(nil, lists...)
	// Sum each user's denominator triple across every source, one batch
	// per source (the transport-shaped call order); integer addition is
	// associative, so the order of the sums does not matter.
	denoms := make([]UserStats, len(merged))
	users := make([]world.UserID, len(merged))
	for i, rc := range merged {
		users[i] = rc.User
	}
	var stats []UserStats
	for _, src := range srcs {
		stats = src.StatsInto(stats, users)
		AddUserStats(denoms, stats)
	}
	var w *world.World
	if len(srcs) > 0 {
		w = srcs[0].World()
	}
	return r.FinalizeRaw(dst, merged, denoms, w)
}

// MergeRawNumerators is the integer half of the gather stage: it k-way
// merges per-shard raw candidate lists (each sorted by ascending user
// id, as RawCandidatesInto emits them), summing the numerators of users
// present on several shards, appended to dst (capacity reused, contents
// discarded) in ascending user order — the order CandidatesFrom
// produces and Rank's z-score sums depend on. No floating point is
// involved, which is what lets the merge run anywhere — in process or
// on a scatter-gather coordinator summing rows that arrived over a
// wire — with a bit-identical outcome.
func MergeRawNumerators(dst []RawCandidate, lists ...[]RawCandidate) []RawCandidate {
	dst = dst[:0]
	// One cursor per list, on the stack for any ordinary shard count.
	var headArr [16]int
	heads := headArr[:0]
	for range lists {
		heads = append(heads, 0)
	}
	for {
		// Find the smallest next user across the list heads. Shard
		// counts are small (a handful to a few dozen), so a linear scan
		// beats heap bookkeeping.
		var minUser world.UserID
		found := false
		for li, l := range lists {
			if heads[li] < len(l) {
				if u := l[heads[li]].User; !found || u < minUser {
					minUser, found = u, true
				}
			}
		}
		if !found {
			return dst
		}
		var sum RawCandidate
		sum.User = minUser
		for li, l := range lists {
			if heads[li] < len(l) && l[heads[li]].User == minUser {
				rc := &l[heads[li]]
				sum.Tweets += rc.Tweets
				sum.Mentions += rc.Mentions
				sum.Retweets += rc.Retweets
				sum.Hashtagged += rc.Hashtagged
				heads[li]++
			}
		}
		dst = append(dst, sum)
	}
}

// AddUserStats accumulates one source's denominator triples into the
// running totals, element-wise. add must be positionally aligned with
// dst (triple i belongs to the same user in both).
func AddUserStats(dst, add []UserStats) {
	for i := range add {
		dst[i].Tweets += add[i].Tweets
		dst[i].Mentions += add[i].Mentions
		dst[i].Retweets += add[i].Retweets
	}
}

// FinalizeRaw is the floating-point half of the gather stage: it turns
// globally summed numerators (merged, from MergeRawNumerators) and
// globally summed denominators (denoms, positionally aligned with
// merged) into the candidate pool Rank expects, appended to dst
// (capacity reused, contents discarded). Each division happens exactly
// once, with the same guards as CandidatesFrom, so the pool is
// bit-identical to a single-node extraction over the union of the
// sources' content. w supplies follower counts for the extended GI
// feature and may be nil when no extended weight is set.
func (r *Ranker) FinalizeRaw(dst []Expert, merged []RawCandidate, denoms []UserStats, w *world.World) []Expert {
	dst = dst[:0]
	extended := r.extendedFeatures()
	for i := range merged {
		sum := &merged[i]
		tot := &denoms[i]

		// Finalize with the float operations of CandidatesFrom, exactly
		// (same guards, same divisions), so the merged candidate is
		// bit-identical to its single-node counterpart.
		e := Expert{User: sum.User, OnTopicTweets: sum.Tweets}
		if tot.Tweets > 0 {
			e.TS = float64(sum.Tweets) / float64(tot.Tweets)
		}
		if tot.Mentions > 0 {
			e.MI = float64(sum.Mentions) / float64(tot.Mentions)
		}
		if tot.Retweets > 0 {
			e.RI = float64(sum.Retweets) / float64(tot.Retweets)
		}
		if extended {
			if sum.Tweets > 0 {
				e.HT = float64(sum.Hashtagged) / float64(sum.Tweets)
				e.AV = float64(sum.Retweets) / float64(sum.Tweets)
			}
			if w != nil {
				e.GI = math.Log1p(float64(w.User(sum.User).Followers))
			}
		}
		dst = append(dst, e)
	}
	return dst
}
