package world

import (
	"fmt"
	"strings"

	"repro/internal/xrand"
)

// namer generates pronounceable, category-flavoured names for topics,
// keywords, URLs and user accounts. All output is deterministic in the
// RNG stream it is constructed with, and global uniqueness of topic names
// is enforced with a seen-set so every keyword has a single owning topic.
type namer struct {
	rng  *xrand.RNG
	seen map[string]bool
}

func newNamer(rng *xrand.RNG) *namer {
	return &namer{rng: rng, seen: make(map[string]bool)}
}

var (
	consonants = []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m",
		"n", "p", "r", "s", "t", "v", "w", "z", "br", "ch", "cl", "dr",
		"gr", "kr", "pl", "pr", "sh", "st", "th", "tr"}
	vowels = []string{"a", "e", "i", "o", "u", "ai", "ea", "io", "ou"}

	sportsSuffixes = []string{"ers", "hawks", "cats", "bulls", "stars",
		"united", "racing", "fc", "wolves", "riders"}
	electronicsNouns = []string{"phone", "tablet", "watch", "camera",
		"speaker", "headset", "drone", "router", "console", "tv"}
	financeSuffixes = []string{"capital", "futures", "index", "holdings",
		"etf", "stock", "bank", "fund", "markets", "exchange"}
	healthSuffixes = []string{"itis", "emia", "osis", "algia", "pathy",
		"syndrome", "disorder", "therapy", "fever", "deficiency"}
	wikiSuffixes = []string{"dynasty", "revolution", "treaty", "empire",
		"expedition", "biography", "festival", "saga", "doctrine", "era"}
	generalSuffixes = []string{"news", "online", "maps", "travel",
		"recipes", "weather", "deals", "motors", "airlines", "games"}

	subKeywordPatterns = map[Category][]string{
		Sports:      {"%s roster", "%s schedule", "%s draft", "%s trade", "%s score", "%s tickets", "%s highlights", "%s coach", "%s rumors", "%s injury"},
		Electronics: {"%s review", "%s price", "%s specs", "%s manual", "%s case", "%s charger", "%s vs", "%s deals", "%s battery", "%s setup"},
		Finance:     {"%s price", "%s forecast", "%s chart", "%s dividend", "%s earnings", "%s analysis", "%s today", "%s news", "%s outlook", "%s rate"},
		Health:      {"%s symptoms", "%s treatment", "%s diet", "%s causes", "%s medication", "%s diagnosis", "%s prevention", "%s risk", "%s test", "%s cure"},
		Wikipedia:   {"%s history", "%s timeline", "%s facts", "%s summary", "%s causes", "%s map", "%s quotes", "%s legacy", "%s museum", "%s documentary"},
		General:     {"%s news", "%s online", "%s login", "%s app", "%s reviews", "%s hours", "%s near me", "%s coupons", "%s website", "%s phone number"},
	}
)

// word builds a pronounceable word of the requested syllable count.
func (n *namer) word(syllables int) string {
	var b strings.Builder
	for i := 0; i < syllables; i++ {
		b.WriteString(xrand.Pick(n.rng, consonants))
		b.WriteString(xrand.Pick(n.rng, vowels))
	}
	return b.String()
}

// TopicName generates a unique category-flavoured topic headline keyword.
func (n *namer) TopicName(cat Category) string {
	for attempt := 0; ; attempt++ {
		var name string
		base := n.word(2 + n.rng.Intn(2))
		switch cat {
		case Sports:
			name = base + " " + xrand.Pick(n.rng, sportsSuffixes)
		case Electronics:
			name = base + " " + xrand.Pick(n.rng, electronicsNouns)
		case Finance:
			if n.rng.Bool(0.4) {
				// Ticker-style keyword.
				name = strings.ToLower(base[:min(4, len(base))]) + " " + xrand.Pick(n.rng, financeSuffixes)
			} else {
				name = base + " " + xrand.Pick(n.rng, financeSuffixes)
			}
		case Health:
			name = base + xrand.Pick(n.rng, healthSuffixes)
		case Wikipedia:
			if n.rng.Bool(0.5) {
				// Person-style two-word name.
				name = base + " " + n.word(2)
			} else {
				name = base + " " + xrand.Pick(n.rng, wikiSuffixes)
			}
		default:
			if n.rng.Bool(0.35) {
				name = base // single brand-style token
			} else {
				name = base + " " + xrand.Pick(n.rng, generalSuffixes)
			}
		}
		if !n.seen[name] {
			n.seen[name] = true
			return name
		}
		if attempt > 100 {
			// Fall back to an indexed name; practically unreachable.
			name = fmt.Sprintf("%s %d", name, len(n.seen))
			n.seen[name] = true
			return name
		}
	}
}

// SubKeyword generates a satellite keyword for a topic: either a
// pattern-expanded phrase ("<name> schedule") or a fresh entity name
// (player, product, author...) associated with the topic.
func (n *namer) SubKeyword(cat Category, topicName string) string {
	if n.rng.Bool(0.6) {
		pat := xrand.Pick(n.rng, subKeywordPatterns[cat])
		return fmt.Sprintf(pat, topicName)
	}
	// Entity-style keyword: two fresh words (a player, device model...).
	return n.word(2) + " " + n.word(1+n.rng.Intn(2))
}

// TopicURL derives the i-th topic-specific URL for a topic name.
func (n *namer) TopicURL(topicName string, i int) string {
	host := sanitizeHost(topicName)
	switch i {
	case 0:
		return host + ".com"
	case 1:
		return "www." + host + ".org"
	case 2:
		return host + ".blog"
	default:
		return fmt.Sprintf("%s-%d.net", host, i)
	}
}

// ScreenName generates a unique account handle flavoured by the account
// kind and (for experts) the topic it covers.
func (n *namer) ScreenName(kind UserKind, topicName string) string {
	base := strings.ReplaceAll(topicName, " ", "")
	if base == "" {
		base = n.word(2)
	}
	var name string
	switch kind {
	case ExpertUser:
		switch n.rng.Intn(4) {
		case 0:
			name = base + "fan" + fmt.Sprint(n.rng.Intn(100))
		case 1:
			name = "all_" + base
		case 2:
			name = base + "_daily"
		default:
			name = n.word(2) + "_" + base
		}
	case NewsUser:
		name = base + "news"
	case SpamUser:
		name = "win_" + n.word(2) + fmt.Sprint(n.rng.Intn(1000))
	default:
		name = n.word(2) + fmt.Sprint(n.rng.Intn(10000))
	}
	for n.seen["@"+name] {
		name += fmt.Sprint(n.rng.Intn(10))
	}
	n.seen["@"+name] = true
	return name
}

// sanitizeHost converts free text to a hostname-safe label.
func sanitizeHost(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteByte('-')
		}
	}
	out := strings.Trim(b.String(), "-")
	if out == "" {
		return "site"
	}
	return out
}
