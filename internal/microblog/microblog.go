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
// misses the topic's experts. One poster renders every synthetic post,
// for the base corpus (GenerateTweets) and the live stream (PostStream)
// alike, so the live posts cannot drift from the world every process
// boots from.
package microblog

import (
	"strings"

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

// GenConfig controls corpus generation: its seed and posting volumes.
// The behaviour rates (offTopicRate and the rest) are constants.
type GenConfig struct {
	Seed uint64
	// TweetsPerExpert is the mean post count of an influence-1 expert.
	TweetsPerExpert float64
	// TweetsPerCasual and TweetsPerSpammer are mean post counts.
	TweetsPerCasual  float64
	TweetsPerSpammer float64
}

// DefaultGenConfig returns corpus defaults for the default world.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:             11,
		TweetsPerExpert:  60,
		TweetsPerCasual:  10,
		TweetsPerSpammer: 40,
	}
}

// meanPosts is u's mean post count in the base corpus — and, in the
// live stream, u's weight as an author.
func (c GenConfig) meanPosts(u *world.User) float64 {
	switch u.Kind {
	case world.ExpertUser, world.NewsUser:
		return c.TweetsPerExpert * (0.3 + u.Influence)
	case world.CasualUser:
		return c.TweetsPerCasual
	case world.SpamUser:
		return c.TweetsPerSpammer
	}
	return 0
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

	index TermIndex

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

// TermIndex is the term → posting-list index, its terms numbered in
// the order they first arrive: a corpus (FromTweets) and the streaming
// writer's tail (internal/ingest) build it post by post with Add, and a
// segment (internal/diskseg) encodes it as built. The zero value is an
// empty index. Terms and TermOf are the index's own: read-only to
// everyone but Add.
type TermIndex struct {
	number map[string]uint32 // a token's number in Terms
	// Terms holds, by number, each term's token and posting list.
	Terms []Term
	// TermOf holds, post after post and token after token, the number
	// of every added post's token — kept only by an index that records
	// it (Record): a writer's tail, which a seal encodes as built. A
	// corpus's index does not keep it; an encode of the corpus looks
	// the numbers up once (AppendNumbers).
	TermOf []uint32
	// record, terms and tokens are Record's: whether Add keeps TermOf,
	// and what the first Add sizes the map and Terms, and TermOf, for.
	record        bool
	terms, tokens int
}

// Term is one term of a TermIndex: its token and the ascending,
// duplicate-free ids of the posts holding it.
type Term struct {
	Tok string
	IDs []TweetID
}

// Record has an empty index keep TermOf, and has its first Add size the
// map and Terms for terms terms and TermOf for tokens tokens: a writer's
// tail generation passes what the generation it replaces held, so a
// generation does not grow its index by doubling, and the seal that
// starts it allocates none of it.
func (x *TermIndex) Record(terms, tokens int) {
	x.record, x.terms, x.tokens = true, terms, tokens
}

// Add indexes the post with the given id, which must be above every
// id added before, looking each of its terms up once.
func (x *TermIndex) Add(id TweetID, terms []string) {
	if x.number == nil {
		x.number = make(map[string]uint32, x.terms)
		x.Terms = make([]Term, 0, x.terms)
		if x.record {
			x.TermOf = make([]uint32, 0, x.tokens)
		}
	}
	for _, tok := range terms {
		n, ok := x.number[tok]
		if !ok {
			n = uint32(len(x.Terms))
			x.number[tok] = n
			x.Terms = append(x.Terms, Term{Tok: tok})
		}
		if x.record {
			x.TermOf = append(x.TermOf, n)
		}
		// A token repeated inside the post already ends the list with id.
		if t := &x.Terms[n]; len(t.IDs) == 0 || t.IDs[len(t.IDs)-1] != id {
			t.IDs = append(t.IDs, id)
		}
	}
}

// AppendNumbers appends to dst the number of each of terms — what Add
// keeps in TermOf for a post of those terms, read back from the one
// numbering Add made. Every one of terms must be in the index.
func (x *TermIndex) AppendNumbers(dst []uint32, terms []string) []uint32 {
	for _, tok := range terms {
		n, ok := x.number[tok]
		if !ok {
			panic("microblog: AppendNumbers of a term the index does not hold: " + tok)
		}
		dst = append(dst, n)
	}
	return dst
}

// Postings returns the posting list of tok — the ids of every post
// holding it, ascending — nil when no post holds it. The slice is the
// index's own: read-only.
func (x *TermIndex) Postings(tok string) []TweetID {
	if n, ok := x.number[tok]; ok {
		return x.Terms[n].IDs
	}
	return nil
}

// MatchAppend writes into buf (capacity reused, contents discarded)
// the ids of the posts holding every one of tokens — the AND-match, the
// paper's default predicate over a query tokenized by
// textutil.Tokenize. It is the only matcher of a corpus (Index) and of
// the streaming writer's tail. No tokens, or a token the index lacks,
// match nothing; it allocates only when buf is too small.
func (x *TermIndex) MatchAppend(buf []TweetID, tokens []string) []TweetID {
	var few [4][]TweetID // keeps the common short query off the heap
	postings := few[:0]
	for _, tok := range tokens {
		p := x.Postings(tok)
		if p == nil {
			return buf[:0]
		}
		postings = append(postings, p)
	}
	switch len(postings) {
	case 0:
		return buf[:0]
	case 1:
		// Single token: the posting list is index-owned, so hand the
		// caller a copy written into their buffer.
		return append(buf[:0], postings[0]...)
	}
	// Sort by ascending length: intersecting from the rarest token
	// means every later pass can only shrink the running result.
	for i := 1; i < len(postings); i++ {
		for j := i; j > 0 && len(postings[j-1]) > len(postings[j]); j-- {
			postings[j-1], postings[j] = postings[j], postings[j-1]
		}
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

// Generate builds a corpus from the world. Generation is deterministic
// in cfg.Seed.
func Generate(w *world.World, cfg GenConfig) *Corpus {
	return FromTweets(w, GenerateTweets(w, cfg))
}

// GenerateTweets returns Generate(w, cfg)'s tweets, rendered but not
// indexed, each ID its position: a process that serves a partition of
// them (FromTweets over the slice) indexes each post once, not the
// whole corpus first. Each user posts a Poisson number of times; an
// expert's topical post may draw a fan's mention of it right after.
func GenerateTweets(w *world.World, cfg GenConfig) []Tweet {
	rng := xrand.New(cfg.Seed)
	p := newPoster(w, rng)
	// The slice grows by doubling: the total of the Poisson draws is
	// not known ahead.
	var tweets []Tweet
	emit := func(post Post) {
		tw := MakeTweet(post)
		tw.ID = TweetID(len(tweets))
		tweets = append(tweets, tw)
	}
	for i := range w.Users {
		u := &w.Users[i]
		for range rng.Poisson(cfg.meanPosts(u)) {
			switch u.Kind {
			case world.ExpertUser, world.NewsUser:
				topic, ok := p.topicOf(u)
				if !ok {
					emit(p.chatter(u.ID))
					continue
				}
				emit(p.topical(u.ID, topic))
				if rng.Bool(baseMentionRate*u.Influence*2) && len(p.fans) > 0 {
					emit(p.mention(u.ID, topic))
				}
			case world.CasualUser:
				emit(p.chatter(u.ID))
			case world.SpamUser:
				emit(p.spam(u.ID))
			}
		}
	}
	return tweets
}

// The behaviour rates of every synthetic post, base corpus and live
// stream alike.
const (
	// offTopicRate is the chance an expert's turn is generic chatter.
	offTopicRate = 0.2
	// secondKeywordRate is the chance a topical post carries a second
	// keyword of its topic.
	secondKeywordRate = 0.2
	// retweetBoost scales the retweet counts of topical posts.
	retweetBoost = 3
	// baseMentionRate and streamMentionRate scale the chance an
	// expert's topical turn yields a fan's post mentioning the expert:
	// after the expert's own post in the base corpus, instead of it in
	// the live stream.
	baseMentionRate   = 0.25
	streamMentionRate = 0.15
)

// fillerWords pad posts with realistic chatter. They are chosen to be
// disjoint from every anchor-topic keyword token so they never create
// accidental query matches.
var fillerWords = []string{
	"really", "totally", "honestly", "vibes", "lol", "omg", "wow",
	"pretty", "kinda", "super", "definitely", "finally", "tonight",
	"yesterday", "weekend", "morning", "coffee", "friends", "family",
	"mood", "energy", "thoughts", "feeling", "excited", "amazing",
}

// poster renders synthetic posts — for the base corpus (GenerateTweets)
// and the live stream (PostStream) alike, so both draw the same world.
// Each method makes its RNG draws in one fixed order: the corpus and
// every stream are pure functions of their seeds.
type poster struct {
	w   *world.World
	rng *xrand.RNG
	// keywords[t] draws topic t's keywords by TweetRate: this is where
	// search popularity and tweet usage deliberately diverge.
	keywords []*xrand.Weighted
	// spamTopics draws the topics spammers chase: their keyword
	// stuffing follows the topics' actual microblog activity, so dead
	// (navigational) topics attract no spam and stay genuinely
	// unanswerable.
	spamTopics *xrand.Weighted
	// fans are the casual users, the pool mention posts come from.
	fans []world.UserID
}

// newPoster splits the keyword samplers, then the spam-topic sampler,
// off rng, and renders every post from rng.
func newPoster(w *world.World, rng *xrand.RNG) *poster {
	p := &poster{w: w, rng: rng, keywords: make([]*xrand.Weighted, len(w.Topics))}
	for i := range w.Topics {
		kws := w.Topics[i].Keywords
		weights := make([]float64, len(kws))
		for j := range kws {
			weights[j] = kws[j].TweetRate + 1e-6
		}
		p.keywords[i] = xrand.NewWeighted(rng.Split(), weights)
	}
	spamWeights := make([]float64, len(w.Topics))
	for i := range w.Topics {
		spamWeights[i] = w.Topics[i].TweetPop*w.Topics[i].TweetActivity + 1e-9
	}
	p.spamTopics = xrand.NewWeighted(rng.Split(), spamWeights)
	for i := range w.Users {
		if w.Users[i].Kind == world.CasualUser {
			p.fans = append(p.fans, w.Users[i].ID)
		}
	}
	return p
}

func (p *poster) filler() string { return fillerWords[p.rng.Intn(len(fillerWords))] }

func (p *poster) keyword(topic world.TopicID) string {
	return p.w.Topic(topic).Keywords[p.keywords[topic].Draw()].Text
}

// topicOf picks the topic of an expert's turn, or reports false for
// chatter: an off-topic turn, or one on a navigational (mapquest-style)
// topic, which is searched but not tweeted — leaving the query
// unanswerable by any detector.
func (p *poster) topicOf(u *world.User) (world.TopicID, bool) {
	if p.rng.Bool(offTopicRate) || len(u.Topics) == 0 {
		return 0, false
	}
	topic := u.Topics[p.rng.Intn(len(u.Topics))]
	return topic, p.rng.Bool(p.w.Topic(topic).TweetActivity)
}

// topical renders an on-topic post: one TweetRate-weighted keyword,
// occasionally two.
func (p *poster) topical(author world.UserID, topic world.TopicID) Post {
	kw := p.keyword(topic)
	lead := p.filler()
	kws := kw
	if p.rng.Bool(secondKeywordRate) {
		if second := p.keyword(topic); second != kw {
			kws = kw + " " + second
		}
	}
	return Post{
		Author:       author,
		Text:         lead + " " + kws + " " + p.filler(),
		RetweetCount: p.rng.Poisson(retweetBoost * p.w.User(author).Influence * 2),
		Topic:        topic,
	}
}

// mention renders a fan's post that @-mentions the expert with a
// keyword of the topic, feeding the expert's mention-impact feature.
func (p *poster) mention(expert world.UserID, topic world.TopicID) Post {
	fan := p.fans[p.rng.Intn(len(p.fans))]
	kw := p.keyword(topic)
	return Post{
		Author:       fan,
		Text:         "@" + p.w.User(expert).ScreenName + " great takes on " + kw + " " + p.filler(),
		Mentions:     []world.UserID{expert},
		RetweetCount: p.rng.Poisson(0.2),
		Topic:        topic,
	}
}

// chatter renders a generic off-topic post; occasionally it mentions
// another random user, giving mention denominators realistic mass.
func (p *poster) chatter(author world.UserID) Post {
	var words [5]string
	n := 2 + p.rng.Intn(4)
	for i := range n {
		words[i] = p.filler()
	}
	post := Post{Author: author, Text: strings.Join(words[:n], " "), Topic: -1}
	if p.rng.Bool(0.08) {
		if other := world.UserID(p.rng.Intn(len(p.w.Users))); other != author {
			post.Text += " @" + p.w.User(other).ScreenName
			post.Mentions = []world.UserID{other}
		}
	}
	post.RetweetCount = p.rng.Poisson(0.05)
	return post
}

// spam renders a spammer's keyword stuffing: a trending topic's head
// keyword plus bait.
func (p *poster) spam(author world.UserID) Post {
	kw := p.w.Topic(world.TopicID(p.spamTopics.Draw())).Keywords[0].Text
	return Post{Author: author, Text: "free prizes " + kw + " click here " + p.filler(), Topic: -1}
}
