package expertise

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/microblog"
	"repro/internal/textutil"
	"repro/internal/world"
)

func tinySetup(t testing.TB) (*world.World, *microblog.Corpus, *Ranker) {
	t.Helper()
	w := world.Build(world.TinyConfig())
	c := microblog.Generate(w, microblog.TinyGenConfig())
	return w, c, NewRanker(c.NumUsers(), DefaultParams())
}

// match is the AND-match of query over c, tokenized as the detectors
// tokenize a term.
func match(c *microblog.Corpus, query string) []microblog.TweetID {
	return c.Index().MatchAppend(nil, textutil.Tokenize(query))
}

// candidates extracts the candidates of query's matches over c.
func candidates(r *Ranker, c *microblog.Corpus, query string) []Expert {
	return r.CandidatesFrom(c, match(c, query))
}

// search is the baseline over c: query's candidates, ranked.
func search(r *Ranker, c *microblog.Corpus, query string) []Expert {
	return r.Rank(nil, candidates(r, c, query))
}

func TestSearchReturnsExperts(t *testing.T) {
	w, c, r := tinySetup(t)
	results := search(r, c, "49ers")
	if len(results) == 0 {
		t.Fatal("no experts for 49ers")
	}
	// Ground truth: the top result should be a genuine expert (or at
	// least most of the top-5 should be relevant).
	id49, _ := w.KeywordOwner("49ers")
	relevant := 0
	top := results
	if len(top) > 5 {
		top = top[:5]
	}
	for _, e := range top {
		if w.IsRelevantExpert(e.User, id49) {
			relevant++
		}
	}
	if relevant < len(top)/2+1 {
		t.Errorf("only %d/%d of top results are relevant experts", relevant, len(top))
	}
}

func TestSearchEmptyForUnmatchedQuery(t *testing.T) {
	_, c, r := tinySetup(t)
	if got := search(r, c, "zzzz unknown keyword"); got != nil {
		t.Fatalf("expected nil for unmatched query, got %d results", len(got))
	}
	if got := search(r, c, ""); got != nil {
		t.Fatal("expected nil for empty query")
	}
}

func TestResultsSortedAndCapped(t *testing.T) {
	_, c, r := tinySetup(t)
	results := search(r, c, "49ers")
	for i := 1; i < len(results); i++ {
		if results[i-1].Score < results[i].Score {
			t.Fatal("results not sorted by score")
		}
	}
	if len(results) > r.Params().MaxResults {
		t.Fatalf("got %d results, cap %d", len(results), r.Params().MaxResults)
	}
}

func TestThresholdMonotone(t *testing.T) {
	_, c, _ := tinySetup(t)
	prev := -1
	for _, z := range []float64{-2, 0, 0.5, 1, 2, 4, 8} {
		p := DefaultParams()
		p.MinZScore = z
		p.MaxResults = 0
		r := NewRanker(c.NumUsers(), p)
		n := len(search(r, c, "49ers"))
		if prev >= 0 && n > prev {
			t.Fatalf("raising threshold to %v increased results %d -> %d", z, prev, n)
		}
		prev = n
	}
	if prev != 0 {
		t.Errorf("threshold 8 still returns %d results", prev)
	}
}

func TestCandidatesIncludeMentionedUsers(t *testing.T) {
	_, c, r := tinySetup(t)
	// Find a matched tweet with a mention; its mentioned user must be a
	// candidate.
	matched := match(c, "49ers")
	var mentioned world.UserID = -1
	authors := map[world.UserID]bool{}
	for _, tid := range matched {
		tw := c.Tweet(tid)
		authors[tw.Author] = true
	}
	for _, tid := range matched {
		tw := c.Tweet(tid)
		for _, m := range tw.Mentions {
			if !authors[m] {
				mentioned = m
				break
			}
		}
	}
	if mentioned < 0 {
		t.Skip("no purely-mentioned user in tiny corpus")
	}
	cands := candidates(r, c, "49ers")
	found := false
	for _, e := range cands {
		if e.User == mentioned {
			found = true
			if e.MI <= 0 {
				t.Error("mentioned candidate has zero MI")
			}
		}
	}
	if !found {
		t.Error("mentioned user missing from candidates")
	}
}

func TestFeatureRanges(t *testing.T) {
	_, c, r := tinySetup(t)
	for _, e := range candidates(r, c, "49ers") {
		if e.TS < 0 || e.TS > 1 {
			t.Errorf("TS out of [0,1]: %v", e.TS)
		}
		if e.MI < 0 || e.MI > 1 {
			t.Errorf("MI out of [0,1]: %v", e.MI)
		}
		if e.RI < 0 || e.RI > 1 {
			t.Errorf("RI out of [0,1]: %v", e.RI)
		}
		if e.OnTopicTweets < 0 {
			t.Errorf("negative tweet count")
		}
	}
}

func TestZScoresProperties(t *testing.T) {
	prop := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		zs := slices.Clone(raw)
		zscores(zs)
		var sum float64
		for _, z := range zs {
			sum += z
		}
		mean := sum / float64(len(zs))
		if math.Abs(mean) > 1e-6 {
			return false
		}
		// Order preserved.
		for i := range raw {
			for j := range raw {
				if raw[i] < raw[j] && zs[i] > zs[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZScoresConstantVector(t *testing.T) {
	zs := []float64{3, 3, 3}
	zscores(zs)
	for _, z := range zs {
		if z != 0 {
			t.Fatalf("constant vector z-scores = %v, want zeros", zs)
		}
	}
}

func TestDeterminism(t *testing.T) {
	_, c, _ := tinySetup(t)
	r1 := NewRanker(c.NumUsers(), DefaultParams())
	r2 := NewRanker(c.NumUsers(), DefaultParams())
	a := search(r1, c, "49ers")
	b := search(r2, c, "49ers")
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].User != b[i].User || a[i].Score != b[i].Score {
			t.Fatalf("result %d differs", i)
		}
	}
}

func TestWeightsAblateFeatures(t *testing.T) {
	_, c, _ := tinySetup(t)
	p := DefaultParams()
	p.WeightMI, p.WeightRI = 0, 0
	p.WeightTS = 1
	p.MinZScore = -100
	p.MaxResults = 0
	r := NewRanker(c.NumUsers(), p)
	results := search(r, c, "49ers")
	if len(results) == 0 {
		t.Skip("no results")
	}
	// With TS-only weighting, score order must follow z(log TS) order,
	// which is monotone in TS.
	for i := 1; i < len(results); i++ {
		if results[i-1].Score == results[i].Score {
			continue
		}
		if results[i-1].TS < results[i].TS {
			t.Fatalf("TS-only ranking violated at %d: %v < %v", i, results[i-1].TS, results[i].TS)
		}
	}
}

func TestUnionTweets(t *testing.T) {
	a := []microblog.TweetID{1, 3, 5}
	b := []microblog.TweetID{2, 3, 8}
	got := UnionTweets(a, b)
	want := []microblog.TweetID{1, 2, 3, 5, 8}
	if len(got) != len(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union = %v, want %v", got, want)
		}
	}
	if UnionTweets(nil, nil) != nil {
		t.Error("union of empties should be nil")
	}
}

func TestSpammersRankBelowExperts(t *testing.T) {
	w, c, _ := tinySetup(t)
	p := DefaultParams()
	p.MaxResults = 0
	p.MinZScore = -100
	r := NewRanker(c.NumUsers(), p)
	results := search(r, c, "49ers")
	if len(results) < 4 {
		t.Skip("too few results")
	}
	// Mean rank of experts must beat mean rank of spammers among results.
	var expertRankSum, expertN, spamRankSum, spamN float64
	for i, e := range results {
		switch w.User(e.User).Kind {
		case world.ExpertUser, world.NewsUser:
			expertRankSum += float64(i)
			expertN++
		case world.SpamUser:
			spamRankSum += float64(i)
			spamN++
		}
	}
	if expertN == 0 {
		t.Fatal("no experts in results")
	}
	if spamN > 0 && spamRankSum/spamN < expertRankSum/expertN {
		t.Errorf("spammers rank above experts on average")
	}
}

func BenchmarkSearch(b *testing.B) {
	_, c, r := tinySetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(r, c, "49ers")
	}
}

func TestExtendedParamsStillFindExperts(t *testing.T) {
	w, c, _ := tinySetup(t)
	r := NewRanker(c.NumUsers(), ExtendedParams())
	results := search(r, c, "49ers")
	if len(results) == 0 {
		t.Fatal("extended feature set found no experts")
	}
	id49, _ := w.KeywordOwner("49ers")
	relevant := 0
	top := results
	if len(top) > 5 {
		top = top[:5]
	}
	for _, e := range top {
		if w.IsRelevantExpert(e.User, id49) {
			relevant++
		}
	}
	if relevant < len(top)/2 {
		t.Errorf("extended features degraded precision: %d/%d relevant", relevant, len(top))
	}
	// Extended raw features populated.
	anyGI := false
	for _, e := range candidates(r, c, "49ers") {
		if e.GI > 0 {
			anyGI = true
		}
		if e.HT < 0 || e.HT > 1 {
			t.Errorf("HT out of range: %v", e.HT)
		}
		if e.AV < 0 {
			t.Errorf("negative AV: %v", e.AV)
		}
	}
	if !anyGI {
		t.Error("graph influence never populated")
	}
}

func TestDefaultParamsSkipExtendedFeatures(t *testing.T) {
	_, c, r := tinySetup(t)
	for _, e := range candidates(r, c, "49ers") {
		if e.GI != 0 || e.HT != 0 || e.AV != 0 {
			t.Fatal("extended features computed despite zero weights")
		}
	}
}

func TestLogFeaturesApproximatelyGaussian(t *testing.T) {
	// The paper: "the features appear to be log-normally distributed.
	// Therefore, we take their logarithm to obtain Gaussian
	// distributions." Check our synthetic TS follows suit: the skewness
	// of log TS over a large candidate pool should be far smaller than
	// the skewness of raw TS.
	_, c, r := tinySetup(t)
	cands := candidates(r, c, "49ers")
	if len(cands) < 10 {
		t.Skip("too few candidates")
	}
	var raw, logged []float64
	for _, e := range cands {
		if e.TS > 0 {
			raw = append(raw, e.TS)
			logged = append(logged, math.Log(e.TS))
		}
	}
	if len(raw) < 8 {
		t.Skip("too few positive TS values")
	}
	if sRaw, sLog := math.Abs(skewness(raw)), math.Abs(skewness(logged)); sLog > sRaw {
		t.Errorf("log transform increased skewness: raw %.2f -> log %.2f", sRaw, sLog)
	}
}

func skewness(xs []float64) float64 {
	n := float64(len(xs))
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var m2, m3 float64
	for _, x := range xs {
		d := x - mean
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}
