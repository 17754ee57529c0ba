// Package microblog synthesizes and indexes the tweet corpus that
// replaces the paper's Twitter data. Posts are generated from the same
// world.World as the query log, so search-behaviour semantics and
// microblog authorship share one latent topic structure.
//
// The generator deliberately recreates the recall problem that motivates
// e#: posts are capped at 140 characters and each topical post uses only
// one (occasionally two) of its topic's keywords, drawn by the keyword's
// TweetRate. Keywords that are searched often but tweeted rarely — the
// "west coast football" case from the paper's introduction — therefore
// match almost no posts, and a detector restricted to the literal query
// misses the topic's experts.
package microblog

import (
	"fmt"
	"strings"

	"repro/internal/textutil"
	"repro/internal/world"
	"repro/internal/xrand"
)

// TweetID identifies a tweet within a corpus.
type TweetID int32

// Tweet is one microblog post.
type Tweet struct {
	ID     TweetID
	Author world.UserID
	// Text is the rendered post, at most 140 runes.
	Text string
	// Terms is the tokenized, lower-cased text.
	Terms []string
	// Mentions lists the users @-mentioned in the post.
	Mentions []world.UserID
	// RetweetCount is how many times the post was retweeted.
	RetweetCount int
	// Topic is the latent topic the post is about (-1 for chatter).
	// It is generator ground truth, invisible to the detectors.
	Topic world.TopicID
}

// Features returns what expert ranking reads of one matched post — the
// numerators of the paper's TS, MI and RI features, and the hashtag bit
// behind the extended HT feature — without copying: mentions aliases
// the tweet and is read-only. The term scan behind hashtagged runs only
// when hashtag is set. (Separate results, not a struct: a struct this
// wide is built in memory and copied out on every matched post.)
func (t *Tweet) Features(hashtag bool) (author world.UserID, retweets int, hashtagged bool, mentions []world.UserID) {
	return t.Author, t.RetweetCount, hashtag && t.HasHashtag(), t.Mentions
}

// HasHashtag reports whether any term of the post is a hashtag.
func (t *Tweet) HasHashtag() bool {
	for _, tok := range t.Terms {
		if len(tok) > 1 && tok[0] == '#' {
			return true
		}
	}
	return false
}

// GenConfig controls corpus generation.
type GenConfig struct {
	Seed uint64
	// TweetsPerExpert is the mean post count of an influence-1 expert.
	TweetsPerExpert float64
	// TweetsPerCasual and TweetsPerSpammer are mean post counts.
	TweetsPerCasual  float64
	TweetsPerSpammer float64
	// OffTopicRate is the chance an expert post is generic chatter.
	OffTopicRate float64
	// SecondKeywordRate is the chance a topical post carries a second
	// keyword of the same topic (bounded by the 140-char limit).
	SecondKeywordRate float64
	// MentionRate is the chance a topical expert post triggers a fan
	// post mentioning the expert.
	MentionRate float64
	// RetweetBoost scales retweet counts of topical posts.
	RetweetBoost float64
}

// DefaultGenConfig returns corpus defaults for the default world.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:              11,
		TweetsPerExpert:   60,
		TweetsPerCasual:   10,
		TweetsPerSpammer:  40,
		OffTopicRate:      0.2,
		SecondKeywordRate: 0.2,
		MentionRate:       0.25,
		RetweetBoost:      3,
	}
}

// TinyGenConfig returns a miniature configuration for unit tests.
func TinyGenConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.TweetsPerExpert = 40
	cfg.TweetsPerCasual = 6
	cfg.TweetsPerSpammer = 20
	return cfg
}

// Corpus is the indexed tweet collection.
type Corpus struct {
	w      *world.World
	tweets []Tweet

	// termIndex maps each token to the sorted tweets containing it.
	termIndex map[string][]TweetID

	tweetsBy   []int // posts per user
	mentionsOf []int // mentions received per user
	retweetsOf []int // retweets received per user
}

// World returns the generating world (the evaluation oracle).
func (c *Corpus) World() *world.World { return c.w }

// NumTweets returns the number of posts.
func (c *Corpus) NumTweets() int { return len(c.tweets) }

// Tweet returns the post with the given id.
func (c *Corpus) Tweet(id TweetID) *Tweet { return &c.tweets[id] }

// Features returns the ranking features of the post with the given id
// (see Tweet.Features). The scratch is unused: an in-heap tweet already
// holds its mentions as a slice.
func (c *Corpus) Features(id TweetID, hashtag bool, _ *[]world.UserID) (author world.UserID, retweets int, hashtagged bool, mentions []world.UserID) {
	return c.tweets[id].Features(hashtag)
}

// NumTweetsBy returns how many posts the user authored.
func (c *Corpus) NumTweetsBy(u world.UserID) int { return c.tweetsBy[u] }

// NumMentionsOf returns how many posts mention the user.
func (c *Corpus) NumMentionsOf(u world.UserID) int { return c.mentionsOf[u] }

// NumRetweetsOf returns the total retweets the user's posts received.
func (c *Corpus) NumRetweetsOf(u world.UserID) int { return c.retweetsOf[u] }

// NumUsers returns the number of users in the generating world.
func (c *Corpus) NumUsers() int { return len(c.tweetsBy) }

// UserStats is one user's feature denominators over a set of posts:
// authored posts, mentions received, retweets received. The fields are
// additive, so the triples of disjoint post sets sum exactly
// (expertise.UserStats is this type).
type UserStats struct {
	Tweets, Mentions, Retweets int
}

// StatsInto writes each user's denominator triple into dst (capacity
// reused, contents discarded) and returns the filled buffer.
func (c *Corpus) StatsInto(dst []UserStats, users []world.UserID) []UserStats {
	dst = dst[:0]
	for _, u := range users {
		dst = append(dst, UserStats{Tweets: c.tweetsBy[u], Mentions: c.mentionsOf[u], Retweets: c.retweetsOf[u]})
	}
	return dst
}

// Postings returns the index-owned posting list for a single token:
// the ids of all posts containing it, sorted ascending. The returned
// slice aliases the index — callers must treat it as read-only. A nil
// result means the token occurs in no post.
func (c *Corpus) Postings(token string) []TweetID { return c.termIndex[token] }

// Match returns the ids of all posts containing every token of the
// query after lower-casing — the paper's default matching predicate.
// Results are sorted ascending; nil means no match (or an empty query).
// The returned slice is freshly allocated; allocation-sensitive callers
// should use MatchAppend with a reused buffer instead.
func (c *Corpus) Match(query string) []TweetID {
	out := c.MatchAppend(query, nil)
	if len(out) == 0 {
		return nil
	}
	return out
}

// MatchAppend is the zero-copy core of Match: it writes the matching
// tweet ids into buf (reusing its capacity, discarding its contents)
// and returns the filled buffer. It allocates only when buf is too
// small to hold the result.
func (c *Corpus) MatchAppend(query string, buf []TweetID) []TweetID {
	return c.MatchTokensAppend(textutil.Tokenize(query), buf)
}

// MatchTokensAppend is MatchAppend over an already tokenized query, so
// a caller matching one term against many segments tokenizes it once.
func (c *Corpus) MatchTokensAppend(tokens []string, buf []TweetID) []TweetID {
	return IntersectPostings(buf, c.termIndex, tokens)
}

// IntersectPostings writes into buf (capacity reused, contents
// discarded) the ids present in the posting list of every token — the
// AND-match over one token -> ascending-ids index. No tokens, or a
// token the index lacks, match nothing.
func IntersectPostings(buf []TweetID, index map[string][]TweetID, tokens []string) []TweetID {
	if len(tokens) == 0 {
		return buf[:0]
	}
	if len(tokens) == 1 {
		// Single token: the posting list is index-owned, so hand the
		// caller a copy written into their buffer.
		return append(buf[:0], index[tokens[0]]...)
	}
	var few [4][]TweetID // keeps the common short query off the heap
	postings := few[:0]
	for _, tok := range tokens {
		p, ok := index[tok]
		if !ok {
			return buf[:0]
		}
		// Insert by ascending length: intersecting from the rarest token
		// means every later pass can only shrink the running result.
		i := len(postings)
		postings = append(postings, p)
		for ; i > 0 && len(postings[i-1]) > len(p); i-- {
			postings[i] = postings[i-1]
		}
		postings[i] = p
	}
	buf = IntersectInto(buf, postings[0], postings[1])
	for _, p := range postings[2:] {
		if len(buf) == 0 {
			return buf
		}
		buf = IntersectInto(buf, buf, p)
	}
	return buf
}

// gallopFrom returns the smallest index i >= lo with b[i] >= target,
// probing exponentially before binary-searching the bracketed range.
func gallopFrom(b []TweetID, lo int, target TweetID) int {
	bound := 1
	for lo+bound < len(b) && b[lo+bound] < target {
		bound <<= 1
	}
	hi := lo + bound
	if hi > len(b) {
		hi = len(b)
	}
	lo += bound >> 1
	// Binary search in (lo, hi].
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// IntersectInto writes the intersection of two ascending-sorted lists
// into dst (reusing its capacity, discarding its contents) and returns
// the filled buffer. When one list is much longer than the other it
// gallops through the long list with exponential + binary search
// instead of scanning linearly.
//
// dst may alias a or b: output position k is only written after at
// least k+1 elements of each input have been consumed, so writes never
// clobber unread input.
func IntersectInto(dst, a, b []TweetID) []TweetID {
	dst = dst[:0]
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= 16*len(a) {
		// Gallop: for each element of the short list, leap to its
		// position in the long one.
		j := 0
		for _, v := range a {
			j = gallopFrom(b, j, v)
			if j == len(b) {
				break
			}
			if b[j] == v {
				dst = append(dst, v)
				j++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// fillerWords pad posts with realistic chatter. They are chosen to be
// disjoint from every anchor-topic keyword token so they never create
// accidental query matches.
var fillerWords = []string{
	"really", "totally", "honestly", "vibes", "lol", "omg", "wow",
	"pretty", "kinda", "super", "definitely", "finally", "tonight",
	"yesterday", "weekend", "morning", "coffee", "friends", "family",
	"mood", "energy", "thoughts", "feeling", "excited", "amazing",
}

// Generate builds a corpus from the world. Generation is deterministic
// in cfg.Seed.
func Generate(w *world.World, cfg GenConfig) *Corpus {
	return FromTweets(w, GenerateTweets(w, cfg))
}

// GenerateTweets returns Generate(w, cfg)'s tweets, rendered but not
// indexed, each ID its position: a process that serves a partition of
// them (FromTweets over the slice) indexes each post once, not the
// whole corpus first.
func GenerateTweets(w *world.World, cfg GenConfig) []Tweet {
	rng := xrand.New(cfg.Seed)
	g := &generator{w: w}

	// Per-topic keyword samplers weighted by TweetRate: this is where
	// search popularity and tweet usage deliberately diverge.
	kwSamplers := make([]*xrand.Weighted, len(w.Topics))
	for i := range w.Topics {
		kws := w.Topics[i].Keywords
		weights := make([]float64, len(kws))
		for j := range kws {
			weights[j] = kws[j].TweetRate + 1e-6
		}
		kwSamplers[i] = xrand.NewWeighted(rng.Split(), weights)
	}

	// Casual users double as the fan pool for mention posts.
	var casuals []world.UserID
	for i := range w.Users {
		if w.Users[i].Kind == world.CasualUser {
			casuals = append(casuals, w.Users[i].ID)
		}
	}

	// Spammers chase trending topics: their keyword stuffing follows
	// the topics' actual microblog activity, so dead (navigational)
	// topics attract no spam and stay genuinely unanswerable.
	spamWeights := make([]float64, len(w.Topics))
	for i := range w.Topics {
		spamWeights[i] = w.Topics[i].TweetPop*w.Topics[i].TweetActivity + 1e-9
	}
	spamTopics := xrand.NewWeighted(rng.Split(), spamWeights)

	for i := range w.Users {
		u := &w.Users[i]
		switch u.Kind {
		case world.ExpertUser, world.NewsUser:
			mean := cfg.TweetsPerExpert * (0.3 + u.Influence)
			n := rng.Poisson(mean)
			for k := 0; k < n; k++ {
				if rng.Bool(cfg.OffTopicRate) || len(u.Topics) == 0 {
					g.addChatter(u.ID, rng)
					continue
				}
				topic := u.Topics[rng.Intn(len(u.Topics))]
				// Navigational topics (mapquest-style) are searched but
				// not tweeted: their would-be topical posts degrade to
				// chatter, leaving the query unanswerable by any detector.
				if !rng.Bool(w.Topic(topic).TweetActivity) {
					g.addChatter(u.ID, rng)
					continue
				}
				g.addTopical(u.ID, topic, kwSamplers[topic], rng, cfg)
				// Fans mention productive experts in topical posts.
				if rng.Bool(cfg.MentionRate*u.Influence*2) && len(casuals) > 0 {
					fan := casuals[rng.Intn(len(casuals))]
					g.addMentionPost(fan, u.ID, topic, kwSamplers[topic], rng)
				}
			}
		case world.CasualUser:
			n := rng.Poisson(cfg.TweetsPerCasual)
			for k := 0; k < n; k++ {
				g.addChatter(u.ID, rng)
			}
		case world.SpamUser:
			n := rng.Poisson(cfg.TweetsPerSpammer)
			for k := 0; k < n; k++ {
				// Keyword stuffing: a trending topic's head keyword plus bait.
				topic := world.TopicID(spamTopics.Draw())
				kw := w.Topic(topic).Keywords[0].Text
				text := "free prizes " + kw + " click here " + fillerWords[rng.Intn(len(fillerWords))]
				g.append(u.ID, text, nil, 0, -1)
			}
		}
	}
	return g.tweets
}

// generator accumulates the base corpus's tweets in generation order.
// The slice grows by doubling: each user's post count is a Poisson
// draw, so the total is not known ahead.
type generator struct {
	w      *world.World
	tweets []Tweet
}

// addTopical emits one on-topic post for the author.
func (g *generator) addTopical(author world.UserID, topic world.TopicID,
	kws *xrand.Weighted, rng *xrand.RNG, cfg GenConfig) {

	t := g.w.Topic(topic)
	kw := t.Keywords[kws.Draw()].Text
	var b strings.Builder
	b.WriteString(fillerWords[rng.Intn(len(fillerWords))])
	b.WriteByte(' ')
	b.WriteString(kw)
	if rng.Bool(cfg.SecondKeywordRate) {
		second := t.Keywords[kws.Draw()].Text
		if second != kw {
			b.WriteByte(' ')
			b.WriteString(second)
		}
	}
	b.WriteByte(' ')
	b.WriteString(fillerWords[rng.Intn(len(fillerWords))])

	retweets := rng.Poisson(cfg.RetweetBoost * g.w.User(author).Influence * 2)
	g.append(author, b.String(), nil, retweets, topic)
}

// addMentionPost emits a fan post that @-mentions an expert together
// with a topical keyword, feeding the expert's mention-impact feature.
func (g *generator) addMentionPost(fan, expert world.UserID, topic world.TopicID,
	kws *xrand.Weighted, rng *xrand.RNG) {

	t := g.w.Topic(topic)
	kw := t.Keywords[kws.Draw()].Text
	text := fmt.Sprintf("@%s great takes on %s %s",
		g.w.User(expert).ScreenName, kw, fillerWords[rng.Intn(len(fillerWords))])
	g.append(fan, text, []world.UserID{expert}, rng.Poisson(0.2), topic)
}

// addChatter emits a generic off-topic post; occasionally it mentions
// another random user, giving mention denominators realistic mass.
func (g *generator) addChatter(author world.UserID, rng *xrand.RNG) {
	var b strings.Builder
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(fillerWords[rng.Intn(len(fillerWords))])
	}
	var mentions []world.UserID
	if rng.Bool(0.08) {
		other := world.UserID(rng.Intn(len(g.w.Users)))
		if other != author {
			b.WriteString(" @")
			b.WriteString(g.w.User(other).ScreenName)
			mentions = append(mentions, other)
		}
	}
	g.append(author, b.String(), mentions, rng.Poisson(0.05), -1)
}

// append renders one post (truncated to 140 runes, tokenized) and
// appends it, its ID its position.
func (g *generator) append(author world.UserID, text string, mentions []world.UserID, retweets int, topic world.TopicID) {
	tw := MakeTweet(Post{Author: author, Text: text, Mentions: mentions, RetweetCount: retweets, Topic: topic})
	tw.ID = TweetID(len(g.tweets))
	g.tweets = append(g.tweets, tw)
}
