// Package world defines the synthetic ground-truth universe that replaces
// the paper's two proprietary data assets: the Bing search query log and
// the Twitter corpus. A World holds a set of expertise topics (each with
// keywords, spelling variants and clickable URLs) and a population of
// user accounts (experts, casual users, news outlets and spammers).
//
// Both the query-log generator (internal/querylog) and the microblog
// generator (internal/microblog) sample from the *same* World, so the
// semantic associations that e# mines from search behaviour genuinely
// predict which accounts are expert on which tweets. The World also acts
// as the evaluation oracle: unlike the paper, which needed 64
// crowdworkers because no ground truth existed, we can measure recall and
// precision exactly (the crowd simulation in internal/crowd adds the
// human noise back on top for the Fig 10 reproduction).
package world

import (
	"fmt"
	"sort"

	"repro/internal/textutil"
	"repro/internal/xrand"
)

// Category is a coarse interest area; the six values mirror the paper's
// Table 1 query sets.
type Category int

const (
	// Sports holds teams, leagues and players (49ers, nfl, nascar).
	Sports Category = iota
	// Electronics holds devices and gadgets (xbox, ipad mini).
	Electronics
	// Finance holds markets and financial news (dow futures, nasdaq).
	Finance
	// Health holds conditions and body measures (diabetes, bmi).
	Health
	// Wikipedia holds encyclopedic subjects (world war i, albert einstein).
	Wikipedia
	// General holds everything else (san francisco, sarah palin, honda).
	General
	numCategories
)

// NumCategories is the number of distinct categories.
const NumCategories = int(numCategories)

// Categories lists every category in declaration order.
func Categories() []Category {
	out := make([]Category, NumCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// String returns the lowercase set name used in the paper's tables.
func (c Category) String() string {
	switch c {
	case Sports:
		return "sports"
	case Electronics:
		return "electronics"
	case Finance:
		return "finance"
	case Health:
		return "health"
	case Wikipedia:
		return "wikipedia"
	case General:
		return "top 250"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// TopicID identifies a topic within a World.
type TopicID int

// UserID identifies a user account within a World.
type UserID int

// Keyword is one search term belonging to a topic.
type Keyword struct {
	// Text is the normalized keyword string (lower case, single spaces).
	Text string
	// Canonical is the canonical form this keyword is a variant of; it
	// equals Text for canonical keywords.
	Canonical string
	// SearchPop is the keyword's relative search popularity within its
	// topic (higher = searched more often).
	SearchPop float64
	// TweetRate is the probability that a topical tweet uses this exact
	// keyword. Keywords with high SearchPop but low TweetRate are the
	// paper's motivating case: searchable terms that rarely fit in 140
	// characters, which the baseline detector therefore misses.
	TweetRate float64
	// SelfClickRate is the probability a click on this keyword lands on
	// the keyword's own navigational URL (SelfURL) instead of the
	// topic's URLs. Navigational keywords end up weakly connected in the
	// similarity graph and become the orphan communities of Figure 6.
	SelfClickRate float64
	// SelfURL is the keyword-specific destination (set only when
	// SelfClickRate > 0).
	SelfURL string
}

// RelatedTopic is a weighted edge in the topic relatedness graph. Related
// topics share some click URLs (producing nearby-but-separate
// communities, Fig 7) and their experts count as marginally relevant.
type RelatedTopic struct {
	ID     TopicID
	Weight float64 // in (0, 1]; strength of the relation
}

// Topic is one latent domain of expertise.
type Topic struct {
	ID       TopicID
	Category Category
	// Name is the topic's canonical headline keyword (e.g. "49ers").
	Name string
	// Keywords lists all search terms of the topic, canonical forms first.
	Keywords []Keyword
	// URLs are the web destinations whose clicks characterize the topic.
	// URLs[0..NumCoreURLs-1] are topic-specific; the rest are category
	// hubs shared with related topics.
	URLs        []string
	NumCoreURLs int
	// Related lists semantically adjacent topics.
	Related []RelatedTopic
	// SearchPop is the topic's overall search popularity weight.
	SearchPop float64
	// TweetPop is the topic's overall microblog activity weight.
	TweetPop float64
	// TweetActivity in (0,1] scales how much of the topic's expert
	// attention becomes actual posts. Navigational topics (mapquest-
	// style: searched constantly, tweeted never) get a value near zero —
	// they are why the paper's baseline answers only 64% of the Top 250
	// set, and e# cannot rescue them either (0.86, not 1.0).
	TweetActivity float64
	// Anchor marks hand-curated topics that mirror the paper's worked
	// examples (49ers, diabetes, dow futures, ...).
	Anchor bool
}

// UserKind classifies synthetic accounts.
type UserKind int

const (
	// ExpertUser posts consistently about a small set of topics.
	ExpertUser UserKind = iota
	// NewsUser is a high-follower outlet covering a whole category.
	NewsUser
	// CasualUser posts occasionally about many topics with low signal.
	CasualUser
	// SpamUser posts high volumes of off-topic or keyword-stuffed text.
	SpamUser
)

// String names the user kind.
func (k UserKind) String() string {
	switch k {
	case ExpertUser:
		return "expert"
	case NewsUser:
		return "news"
	case CasualUser:
		return "casual"
	case SpamUser:
		return "spam"
	default:
		return fmt.Sprintf("userkind(%d)", int(k))
	}
}

// User is one synthetic account.
type User struct {
	ID         UserID
	ScreenName string
	Kind       UserKind
	// Topics lists the topics the account is genuinely expert on (empty
	// for casual and spam users; a whole category's topics for news).
	Topics []TopicID
	// Influence in (0,1] drives follower count, mention and retweet
	// probability.
	Influence   float64
	Verified    bool
	Followers   int
	Description string
}

// Config controls world generation. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	Seed uint64
	// TopicsPerCategory is the number of procedurally generated topics in
	// each category (anchor topics come on top).
	TopicsPerCategory int
	// KeywordsPerTopicMin/Max bound the canonical keyword count per topic.
	KeywordsPerTopicMin int
	KeywordsPerTopicMax int
	// MaxVariantsPerKeyword bounds spelling variants per canonical keyword.
	MaxVariantsPerKeyword int
	// URLsPerTopic is the number of topic-specific URLs.
	URLsPerTopic int
	// HubURLsPerCategory is the number of shared category-hub URLs.
	HubURLsPerCategory int
	// ExpertsPerTopic is the mean number of dedicated expert accounts.
	ExpertsPerTopic float64
	// CasualUsers and SpamUsers size the background population.
	CasualUsers int
	SpamUsers   int
	// NewsPerCategory is the number of news outlets per category.
	NewsPerCategory int
	// RelatedPerTopic is the mean number of related-topic edges.
	RelatedPerTopic float64
	// RareKeywordFraction is the fraction of canonical keywords given a
	// near-zero TweetRate (searchable but rarely tweeted verbatim) — the
	// knob that creates the recall gap e# closes.
	RareKeywordFraction float64
	// LonerKeywordFraction is the fraction of satellite keywords with a
	// navigational click profile (SelfClickRate high). They become the
	// orphan communities of Figure 6.
	LonerKeywordFraction float64
	// NavigationalTopicFraction is the fraction of topics that are
	// searched but essentially never tweeted (TweetActivity ~ 0). The
	// General category doubles this rate, which is what drags the
	// baseline's Top 250 answered-rate down, as in Table 8.
	NavigationalTopicFraction float64
}

// DefaultConfig returns the laptop-scale configuration used by the
// experiment harness: ~250 topics, ~6k terms, a few thousand accounts.
func DefaultConfig() Config {
	return Config{
		Seed:                      1,
		TopicsPerCategory:         40,
		KeywordsPerTopicMin:       4,
		KeywordsPerTopicMax:       9,
		MaxVariantsPerKeyword:     2,
		URLsPerTopic:              4,
		HubURLsPerCategory:        2,
		ExpertsPerTopic:           5,
		CasualUsers:               2500,
		SpamUsers:                 120,
		NewsPerCategory:           8,
		RelatedPerTopic:           2.5,
		RareKeywordFraction:       0.3,
		LonerKeywordFraction:      0.12,
		NavigationalTopicFraction: 0.07,
	}
}

// TinyConfig returns a miniature world for unit tests: a handful of
// topics and users so tests run in milliseconds.
func TinyConfig() Config {
	cfg := DefaultConfig()
	cfg.TopicsPerCategory = 4
	cfg.KeywordsPerTopicMin = 3
	cfg.KeywordsPerTopicMax = 6
	cfg.MaxVariantsPerKeyword = 2
	cfg.ExpertsPerTopic = 3
	cfg.CasualUsers = 120
	cfg.SpamUsers = 10
	cfg.NewsPerCategory = 2
	return cfg
}

// World is the generated universe.
type World struct {
	Cfg    Config
	Topics []Topic
	Users  []User

	// keywordOwner maps normalized keyword text to its owning topic.
	// Keyword strings are unique across topics by construction.
	keywordOwner map[string]TopicID
	// expertsByTopic maps a topic to the users expert on it (dedicated
	// experts plus the category's news outlets).
	expertsByTopic map[TopicID][]UserID
}

// Build generates a World from cfg. Generation is fully deterministic in
// cfg.Seed.
func Build(cfg Config) *World {
	rng := xrand.New(cfg.Seed)
	w := &World{
		Cfg:            cfg,
		keywordOwner:   make(map[string]TopicID),
		expertsByTopic: make(map[TopicID][]UserID),
	}
	namer := newNamer(rng.Split())

	// 1. Anchor topics first (they mirror the paper's worked examples and
	//    must exist at every scale), then procedural topics per category.
	for _, spec := range anchorSpecs() {
		w.addAnchorTopic(spec, rng.Split())
	}
	for _, cat := range Categories() {
		for i := 0; i < cfg.TopicsPerCategory; i++ {
			w.addProceduralTopic(cat, namer, rng.Split())
		}
	}

	// 2. Relatedness edges: anchors carry curated relations; procedural
	//    topics link to random same-category peers.
	w.wireRelations(rng.Split())

	// 3. Category hub URLs shared across a category's topics.
	w.attachHubURLs(rng.Split())

	// 4. Population.
	w.buildUsers(namer, rng.Split())

	return w
}

// Topic returns the topic with the given ID.
func (w *World) Topic(id TopicID) *Topic {
	return &w.Topics[int(id)]
}

// User returns the user with the given ID.
func (w *World) User(id UserID) *User {
	return &w.Users[int(id)]
}

// KeywordOwner returns the topic owning the normalized keyword, if any.
func (w *World) KeywordOwner(term string) (TopicID, bool) {
	id, ok := w.keywordOwner[textutil.Normalize(term)]
	return id, ok
}

// ExpertsOn returns the users who are genuinely expert on the topic.
func (w *World) ExpertsOn(id TopicID) []UserID {
	return w.expertsByTopic[id]
}

// Vocabulary returns every keyword string in the world, sorted.
func (w *World) Vocabulary() []string {
	out := make([]string, 0, len(w.keywordOwner))
	for k := range w.keywordOwner {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// IsRelevantExpert is the ground-truth oracle: it reports whether user u
// is a relevant expert for a query owned by topic t. Direct expertise
// always counts; expertise on a related topic counts when the relation
// weight is at least 0.5 (Fig 7's "related but not closely enough"
// communities sit below that line).
func (w *World) IsRelevantExpert(u UserID, t TopicID) bool {
	user := w.User(u)
	for _, ut := range user.Topics {
		if ut == t {
			return true
		}
	}
	topic := w.Topic(t)
	for _, rel := range topic.Related {
		if rel.Weight < 0.5 {
			continue
		}
		for _, ut := range user.Topics {
			if ut == rel.ID {
				return true
			}
		}
	}
	return false
}

// TopicsInCategory returns the IDs of all topics in the category, anchor
// topics first, then by descending search popularity.
func (w *World) TopicsInCategory(cat Category) []TopicID {
	var ids []TopicID
	for i := range w.Topics {
		if w.Topics[i].Category == cat {
			ids = append(ids, w.Topics[i].ID)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		ta, tb := w.Topic(ids[a]), w.Topic(ids[b])
		if ta.Anchor != tb.Anchor {
			return ta.Anchor
		}
		if ta.SearchPop != tb.SearchPop {
			return ta.SearchPop > tb.SearchPop
		}
		return ta.ID < tb.ID
	})
	return ids
}

// addKeyword registers a keyword on the topic, skipping duplicates across
// the whole world so every term has a unique owning topic.
func (w *World) addKeyword(t *Topic, kw Keyword) bool {
	kw.Text = textutil.Normalize(kw.Text)
	kw.Canonical = textutil.Normalize(kw.Canonical)
	if kw.Text == "" {
		return false
	}
	if kw.Canonical == "" {
		kw.Canonical = kw.Text
	}
	if _, taken := w.keywordOwner[kw.Text]; taken {
		return false
	}
	w.keywordOwner[kw.Text] = t.ID
	t.Keywords = append(t.Keywords, kw)
	return true
}

// newTopic appends an empty topic shell and returns it.
func (w *World) newTopic(cat Category, name string, anchor bool) *Topic {
	id := TopicID(len(w.Topics))
	w.Topics = append(w.Topics, Topic{
		ID:       id,
		Category: cat,
		Name:     textutil.Normalize(name),
		Anchor:   anchor,
	})
	return &w.Topics[int(id)]
}

// addProceduralTopic synthesizes one topic with generated names, keyword
// variants, URLs and popularity draws.
func (w *World) addProceduralTopic(cat Category, namer *namer, rng *xrand.RNG) {
	name := namer.TopicName(cat)
	t := w.newTopic(cat, name, false)
	t.SearchPop = rng.LogNormal(0, 1)
	t.TweetPop = rng.LogNormal(0, 1)
	t.TweetActivity = 1
	navFraction := w.Cfg.NavigationalTopicFraction
	if cat == General {
		// Mapquest-style navigational queries cluster in the general
		// category, which feeds the Top 250 set.
		navFraction = 0.5
	}
	if rng.Bool(navFraction) {
		t.TweetActivity = 0.001
		if cat == General {
			// Navigational queries dominate the head of real search
			// logs (mapquest, facebook, ...): boosting their search
			// popularity floods the Top 250 set with them — the reason
			// that set has the paper's lowest baseline answered-rate
			// (0.64) and why even e# only reaches 0.86 there.
			t.SearchPop *= 3
		}
	}

	nKw := w.Cfg.KeywordsPerTopicMin
	if spread := w.Cfg.KeywordsPerTopicMax - w.Cfg.KeywordsPerTopicMin; spread > 0 {
		nKw += rng.Intn(spread + 1)
	}
	canonicals := []string{name}
	for i := 1; i < nKw; i++ {
		canonicals = append(canonicals, namer.SubKeyword(cat, name))
	}
	for i, c := range canonicals {
		pop := 1.0 / float64(i+1) // head keyword most searched
		tweetRate := 0.25 + 0.5*rng.Float64()
		if i > 0 && rng.Bool(w.Cfg.RareKeywordFraction) {
			tweetRate = 0.003 // searchable but almost never tweeted verbatim
		}
		kw := Keyword{Text: c, SearchPop: pop, TweetRate: tweetRate}
		if i > 0 && rng.Bool(w.Cfg.LonerKeywordFraction) {
			kw.SelfClickRate = 0.85
			kw.SelfURL = sanitizeHost(c) + ".site"
		}
		if !w.addKeyword(t, kw) {
			continue
		}
		nv := rng.Intn(w.Cfg.MaxVariantsPerKeyword + 1)
		for _, v := range textutil.Variants(c, nv, rng.Intn(1<<16)) {
			// Variants are searched but essentially never tweeted. They
			// inherit the canonical keyword's click profile, so a loner's
			// variants co-cluster with it in a tiny community.
			w.addKeyword(t, Keyword{
				Text: v, Canonical: c, SearchPop: pop * 0.4, TweetRate: 0.0005,
				SelfClickRate: kw.SelfClickRate, SelfURL: kw.SelfURL,
			})
		}
	}
	for i := 0; i < w.Cfg.URLsPerTopic; i++ {
		t.URLs = append(t.URLs, namer.TopicURL(name, i))
	}
	t.NumCoreURLs = len(t.URLs)
}

// wireRelations links topics within a category. Anchor relations were
// installed by addAnchorTopic; procedural topics receive random peers.
func (w *World) wireRelations(rng *xrand.RNG) {
	w.wireAnchorRelations()
	byCat := map[Category][]TopicID{}
	for i := range w.Topics {
		byCat[w.Topics[i].Category] = append(byCat[w.Topics[i].Category], w.Topics[i].ID)
	}
	for i := range w.Topics {
		t := &w.Topics[i]
		if t.Anchor || t.navigational() {
			// Navigational topics have no semantic neighborhood: their
			// clicks go to one destination, so nothing co-clicks with
			// them and query expansion cannot rescue their queries —
			// the 14% of Top 250 that even e# leaves unanswered.
			continue
		}
		peers := byCat[t.Category]
		n := rng.Poisson(w.Cfg.RelatedPerTopic)
		for k := 0; k < n && len(peers) > 1; k++ {
			p := peers[rng.Intn(len(peers))]
			if p == t.ID || t.hasRelation(p) || w.Topic(p).navigational() {
				continue
			}
			weight := 0.2 + 0.6*rng.Float64()
			t.Related = append(t.Related, RelatedTopic{ID: p, Weight: weight})
			// Relations are symmetric.
			other := w.Topic(p)
			if !other.hasRelation(t.ID) {
				other.Related = append(other.Related, RelatedTopic{ID: t.ID, Weight: weight})
			}
		}
	}
}

// navigational reports whether the topic is searched but essentially
// never tweeted.
func (t *Topic) navigational() bool { return t.TweetActivity > 0 && t.TweetActivity < 0.01 }

func (t *Topic) hasRelation(id TopicID) bool {
	for _, r := range t.Related {
		if r.ID == id {
			return true
		}
	}
	return false
}

// attachHubURLs adds per-category hub URLs (espn.com-style portals) to
// every topic of the category. Hub clicks create the weak inter-topic
// edges that give rise to Fig 7's nearby communities.
func (w *World) attachHubURLs(rng *xrand.RNG) {
	for _, cat := range Categories() {
		hubs := make([]string, w.Cfg.HubURLsPerCategory)
		for i := range hubs {
			hubs[i] = fmt.Sprintf("%s-hub%d.com", sanitizeHost(cat.String()), i)
		}
		for i := range w.Topics {
			t := &w.Topics[i]
			if t.Category != cat || t.navigational() {
				continue
			}
			// Each topic links to a subset of its category hubs.
			for _, h := range hubs {
				if rng.Bool(0.7) {
					t.URLs = append(t.URLs, h)
				}
			}
		}
	}
}
