package microblog

import (
	"strings"
	"testing"

	"repro/internal/textutil"
	"repro/internal/world"
	"repro/internal/xrand"
)

// naiveMatch is the brute-force matching oracle: scan every tweet and
// apply the paper's AND predicate directly.
func naiveMatch(c *Corpus, query string) []TweetID {
	tokens := textutil.Tokenize(query)
	if len(tokens) == 0 {
		return nil
	}
	var out []TweetID
	for i := 0; i < c.NumTweets(); i++ {
		if textutil.ContainsAll(c.Tweet(TweetID(i)).Terms, tokens) {
			out = append(out, TweetID(i))
		}
	}
	return out
}

func sameIDs(a, b []TweetID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomQueries draws query strings of 1-3 tokens from the corpus's
// actual vocabulary (plus a sprinkling of unknown tokens), so both the
// hit and miss paths of the matcher are exercised.
func randomQueries(c *Corpus, rng *xrand.RNG, n int) []string {
	vocab := make([]string, 0, 256)
	seen := map[string]bool{}
	for i := 0; i < c.NumTweets(); i++ {
		for _, tok := range c.Tweet(TweetID(i)).Terms {
			if !seen[tok] {
				seen[tok] = true
				vocab = append(vocab, tok)
			}
		}
	}
	queries := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(3)
		parts := make([]string, 0, k)
		for j := 0; j < k; j++ {
			if rng.Bool(0.05) {
				parts = append(parts, "zzz-no-such-token")
			} else {
				parts = append(parts, vocab[rng.Intn(len(vocab))])
			}
		}
		queries = append(queries, strings.Join(parts, " "))
	}
	return queries
}

// TestMatchEqualsNaiveOnRandomCorpora is the zero-copy property test:
// over randomized corpora and random queries, the galloping
// buffer-reusing matcher must return exactly what a full corpus scan
// returns.
func TestMatchEqualsNaiveOnRandomCorpora(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		cfg := TinyGenConfig()
		cfg.Seed = seed
		c := Generate(world.Build(world.TinyConfig()), cfg)
		rng := xrand.New(seed * 1000)
		var buf []TweetID
		for _, q := range randomQueries(c, rng, 200) {
			want := naiveMatch(c, q)
			got := match(c, q)
			if !sameIDs(got, want) {
				t.Fatalf("seed %d query %q: Match=%v want %v", seed, q, got, want)
			}
			buf = c.Index().MatchAppend(buf, textutil.Tokenize(q))
			if !sameIDs(buf, want) {
				t.Fatalf("seed %d query %q: MatchAppend=%v want %v", seed, q, buf, want)
			}
		}
	}
}

// TestMatchDoesNotAliasIndex guards the one copy the zero-copy API must
// keep: single-token matches hand back a private slice, never the
// index-owned posting list.
func TestMatchDoesNotAliasIndex(t *testing.T) {
	c := tinyCorpus(t)
	var token string
	for i := 0; i < c.NumTweets() && token == ""; i++ {
		if terms := c.Tweet(TweetID(i)).Terms; len(terms) > 0 {
			token = terms[0]
		}
	}
	if token == "" {
		t.Fatal("no tokens in corpus")
	}
	got := match(c, token)
	if len(got) == 0 {
		t.Fatalf("token %q should match", token)
	}
	postings := c.Index().Postings(token)
	if !sameIDs(got, postings) {
		t.Fatalf("Match(%q)=%v differs from Postings=%v", token, got, postings)
	}
	got[0] = -999
	if c.Index().Postings(token)[0] == -999 {
		t.Fatal("Match result aliases the index")
	}
}

func TestPostingsSortedAndComplete(t *testing.T) {
	c := tinyCorpus(t)
	counts := map[string]int{}
	for i := 0; i < c.NumTweets(); i++ {
		seen := map[string]bool{}
		for _, tok := range c.Tweet(TweetID(i)).Terms {
			if !seen[tok] {
				seen[tok] = true
				counts[tok]++
			}
		}
	}
	for tok, want := range counts {
		p := c.Index().Postings(tok)
		if len(p) != want {
			t.Fatalf("token %q: %d postings, want %d", tok, len(p), want)
		}
		for i := 1; i < len(p); i++ {
			if p[i-1] >= p[i] {
				t.Fatalf("token %q: postings not strictly ascending at %d", tok, i)
			}
		}
	}
	if c.Index().Postings("zzz-no-such-token") != nil {
		t.Fatal("unknown token should have nil postings")
	}
}

// refIntersect is the textbook linear intersection used as the oracle
// for IntersectInto.
func refIntersect(a, b []TweetID) []TweetID {
	var out []TweetID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func randomSortedIDs(rng *xrand.RNG, n, space int) []TweetID {
	seen := map[TweetID]bool{}
	for len(seen) < n {
		seen[TweetID(rng.Intn(space))] = true
	}
	out := make([]TweetID, 0, n)
	for id := 0; id < space && len(out) < n; id++ {
		if seen[TweetID(id)] {
			out = append(out, TweetID(id))
		}
	}
	return out
}

// TestIntersectIntoEqualsReference drives both the linear and the
// galloping branch (size skews from 1:1 up to 1:1000) and the in-place
// aliasing modes against the textbook intersection.
func TestIntersectIntoEqualsReference(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 300; trial++ {
		na := 1 + rng.Intn(40)
		nb := 1 + rng.Intn(40)
		if rng.Bool(0.5) {
			nb = na * (16 + rng.Intn(60)) // force the gallop branch
		}
		space := 2 * (na + nb + rng.Intn(1000))
		a := randomSortedIDs(rng, na, space)
		b := randomSortedIDs(rng, nb, space)
		want := refIntersect(a, b)

		got := IntersectInto(nil, a, b)
		if !sameIDs(got, want) {
			t.Fatalf("trial %d: IntersectInto=%v want %v (a=%v b=%v)", trial, got, want, a, b)
		}
		// dst aliasing a, then dst aliasing b — both must stay correct.
		aCopy := append([]TweetID(nil), a...)
		if got := IntersectInto(aCopy, aCopy, b); !sameIDs(got, want) {
			t.Fatalf("trial %d: in-place (dst=a) %v want %v", trial, got, want)
		}
		bCopy := append([]TweetID(nil), b...)
		if got := IntersectInto(bCopy, a, bCopy); !sameIDs(got, want) {
			t.Fatalf("trial %d: in-place (dst=b) %v want %v", trial, got, want)
		}
	}
	if got := IntersectInto(nil, nil, []TweetID{1, 2}); len(got) != 0 {
		t.Fatalf("empty input should intersect empty, got %v", got)
	}
}
