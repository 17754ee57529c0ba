package ingest

import (
	"slices"
	"sort"

	"repro/internal/microblog"
	"repro/internal/world"
)

// Snapshot is one epoch-tagged immutable view of the stream: the sealed
// segments (the base first) and a frozen prefix of the active tail.
// It satisfies expertise.Source (Features, StatsInto), so the ranking
// path runs against it exactly as it runs against a frozen corpus. The
// tail is read where the writer keeps it: a term match reads the
// generation's posting lists, StatsInto its per-user lists, each under
// the generation's lock and cut at the prefix.
// All methods are safe for concurrent use; what a snapshot answers
// never changes after publication.
//
// Tweet ids are global: each sealed segment's range in order — the
// base's [0, Index.Base().NumTweets()) first — then the tail. A Scan'd
// tweet's ID is the segment-local id, not the global one.
type Snapshot struct {
	epoch     uint64
	w         *world.World
	segs      []*segment // segs[0] is the base
	tail      []microblog.Tweet
	tailStart microblog.TweetID
	gen       *tailGen // the generation tail is a prefix of
}

// Epoch identifies this view; it increases with every publish.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumTweets returns the number of posts visible in this view.
func (s *Snapshot) NumTweets() int { return int(s.tailStart) + len(s.tail) }

// NumSegments returns this view's count of sealed segments past the base.
func (s *Snapshot) NumSegments() int { return len(s.segs) - 1 }

// World returns the generating world.
func (s *Snapshot) World() *world.World { return s.w }

// NumUsers returns the number of users in the generating world.
func (s *Snapshot) NumUsers() int { return len(s.w.Users) }

// Scan calls fn with every visible post of global ids [from, to), in
// id order, across the sealed segments and the tail — the log-paging
// read (shard.Local.PagePosts); ranking goes through Features. A sealed
// segment's posts are decoded once, sequentially (diskseg.Segment.Scan). The *Tweet is valid only during the call and
// must not be modified; its ID field is segment-local. The range is
// clipped to the view.
func (s *Snapshot) Scan(from, to int, fn func(*microblog.Tweet)) {
	from, to = max(from, 0), min(to, s.NumTweets())
	if from >= to {
		return
	}
	for _, sg := range s.segs {
		lo := int(sg.start)
		if hi := lo + sg.NumTweets(); from < hi && lo < to {
			sg.Scan(max(from, lo)-lo, min(to, hi)-lo, fn)
		}
	}
	for j := max(from, int(s.tailStart)); j < to; j++ {
		fn(&s.tail[j-int(s.tailStart)])
	}
}

// Features implements expertise.Source: the ranking features of the
// post with the given global id, from whichever of sealed segment or
// tail holds it. A sealed segment answers off its image without
// decoding the post.
func (s *Snapshot) Features(id microblog.TweetID, hashtag bool, scratch *[]world.UserID) (author world.UserID, retweets int, hashtagged bool, mentions []world.UserID) {
	if id >= s.tailStart {
		return s.tail[id-s.tailStart].Features(hashtag)
	}
	sg := s.segmentOf(id)
	return sg.Features(id-sg.start, hashtag, scratch)
}

// segmentOf returns the sealed segment holding global id: the last one
// starting at or before it (an empty base is never the last).
func (s *Snapshot) segmentOf(id microblog.TweetID) *segment {
	n := sort.Search(len(s.segs), func(j int) bool { return s.segs[j].start > id })
	return s.segs[n-1]
}

// StatsInto implements expertise.Source: each user's denominator
// triple summed across the sealed segments and this view's tail,
// written into dst (capacity reused, contents discarded). users must be
// strictly ascending (shard's view refuses any other list). The tail is
// added from the generation's user index in one hold of its lock — per
// user two binary searches cut at len(tail), for the reason
// MatchTokensAppend's cut is right — so its cost follows the users
// asked about, not the tail's length, and it allocates nothing.
func (s *Snapshot) StatsInto(dst []microblog.UserStats, users []world.UserID) []microblog.UserStats {
	dst = s.sealedStatsInto(dst, users)
	if len(s.tail) > 0 {
		s.gen.addStats(dst, users, microblog.TweetID(len(s.tail)))
	}
	return dst
}

// sealedStatsInto is StatsInto without the tail: the sealed segments'
// counters.
func (s *Snapshot) sealedStatsInto(dst []microblog.UserStats, users []world.UserID) []microblog.UserStats {
	dst = slices.Grow(dst[:0], len(users))[:len(users)]
	clear(dst)
	for _, sg := range s.segs {
		for i, u := range users {
			d := &dst[i]
			d.Tweets += sg.NumTweetsBy(u)
			d.Mentions += sg.NumMentionsOf(u)
			d.Retweets += sg.NumRetweetsOf(u)
		}
	}
	return dst
}

// MatchTokensAppend is the zero-copy matcher of the live path: it
// writes the global ids of the posts containing every one of tokens
// (one tokenized term — tokenized once by the caller, not once per
// segment) into dst (reusing its capacity, discarding its contents) and
// returns the filled buffer. Matching runs per segment through the
// frozen zero-copy path and rebases segment-local ids by the segment's
// start offset; because segments partition the id space in order, the
// concatenation is globally sorted with no merge step. local is a
// scratch buffer for the per-segment results; both buffers are returned
// for reuse.
//
// The tail is matched in the writer's own term index (tailGen), under
// the generation's lock — the one lock a reader takes (here and in
// StatsInto), once per match of a view that has a tail. The lists may have grown past this view's
// prefix since it was published (more appends; the generation sealed,
// its segment compacted away), but the writer only appends ascending
// ids, so cutting the result at len(tail) leaves exactly the prefix's.
func (s *Snapshot) MatchTokensAppend(tokens []string, dst, local []microblog.TweetID) (out, localOut []microblog.TweetID) {
	dst = dst[:0]
	for _, sg := range s.segs {
		local = sg.MatchTokensAppend(tokens, local)
		for _, id := range local {
			dst = append(dst, id+sg.start)
		}
	}
	if len(s.tail) > 0 {
		s.gen.mu.Lock()
		local = s.gen.MatchAppend(local, tokens)
		s.gen.mu.Unlock()
		// Cut at this view's own prefix, then rebase.
		end := microblog.TweetID(len(s.tail))
		for _, id := range local {
			if id >= end {
				break
			}
			dst = append(dst, id+s.tailStart)
		}
	}
	return dst, local
}
