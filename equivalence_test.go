// Equivalence tests for the zero-copy concurrent online path: for every
// query in the paper's evaluation query sets, the optimized pipeline
// (galloping intersection, pooled candidate arena, k-way merge union,
// bounded top-k ranking) must return results
// bit-identical to an independent from-scratch reference implementation
// of the Section 3/5 algorithms.
package repro

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expertise"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/serve"
	"repro/internal/textutil"
	"repro/internal/world"
)

var (
	eqOnce sync.Once
	eqPipe *core.Pipeline
	eqSets []eval.QuerySet
	eqErr  error
)

func eqState(t *testing.T) (*core.Pipeline, []eval.QuerySet) {
	t.Helper()
	eqOnce.Do(func() {
		eqPipe, eqErr = core.BuildPipeline(core.TinyPipelineConfig())
		if eqErr == nil {
			eqSets = eval.BuildQuerySets(eqPipe.World, eqPipe.Log,
				eval.SetSizes{PerCategory: 25, Top: 60})
		}
	})
	if eqErr != nil {
		t.Fatal(eqErr)
	}
	return eqPipe, eqSets
}

// refMatch is the brute-force matcher: scan every tweet with the
// paper's AND predicate.
func refMatch(c *microblog.Corpus, query string) []microblog.TweetID {
	tokens := textutil.Tokenize(query)
	if len(tokens) == 0 {
		return nil
	}
	var out []microblog.TweetID
	for i := 0; i < c.NumTweets(); i++ {
		if textutil.ContainsAll(c.Tweet(microblog.TweetID(i)).Terms, tokens) {
			out = append(out, microblog.TweetID(i))
		}
	}
	return out
}

// refRank reimplements the Section 3 ranking from scratch (map-based
// counters, per-candidate log transform, z-score normalization,
// weighted sum, threshold, full sort, truncate) for the production
// feature set, mirroring the float operation order of the optimized
// path so results compare exactly.
func refRank(c *microblog.Corpus, p expertise.Params, matched []microblog.TweetID) []expertise.Expert {
	if len(matched) == 0 {
		return nil
	}
	type counters struct{ tweets, mentions, retweets int }
	byUser := map[world.UserID]*counters{}
	get := func(u world.UserID) *counters {
		ct := byUser[u]
		if ct == nil {
			ct = &counters{}
			byUser[u] = ct
		}
		return ct
	}
	for _, tid := range matched {
		tw := c.Tweet(tid)
		a := get(tw.Author)
		a.tweets++
		a.retweets += tw.RetweetCount
		for _, m := range tw.Mentions {
			get(m).mentions++
		}
	}
	users := make([]world.UserID, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })

	n := len(users)
	cands := make([]expertise.Expert, n)
	logTS := make([]float64, n)
	logMI := make([]float64, n)
	logRI := make([]float64, n)
	for i, u := range users {
		ct := byUser[u]
		e := expertise.Expert{User: u, OnTopicTweets: ct.tweets}
		if total := c.NumTweetsBy(u); total > 0 {
			e.TS = float64(ct.tweets) / float64(total)
		}
		if total := c.NumMentionsOf(u); total > 0 {
			e.MI = float64(ct.mentions) / float64(total)
		}
		if total := c.NumRetweetsOf(u); total > 0 {
			e.RI = float64(ct.retweets) / float64(total)
		}
		cands[i] = e
		logTS[i] = math.Log(e.TS + p.Epsilon)
		logMI[i] = math.Log(e.MI + p.Epsilon)
		logRI[i] = math.Log(e.RI + p.Epsilon)
	}
	zTS := refZScores(logTS)
	zMI := refZScores(logMI)
	zRI := refZScores(logRI)
	wSum := p.WeightTS + p.WeightMI + p.WeightRI + p.WeightHT + p.WeightGI + p.WeightAV
	for i := range cands {
		cands[i].Score = (p.WeightTS*zTS[i] + p.WeightMI*zMI[i] + p.WeightRI*zRI[i]) / wSum
	}
	kept := cands[:0]
	for _, e := range cands {
		if e.Score >= p.MinZScore {
			kept = append(kept, e)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Score != kept[j].Score {
			return kept[i].Score > kept[j].Score
		}
		return kept[i].User < kept[j].User
	})
	if p.MaxResults > 0 && len(kept) > p.MaxResults {
		kept = kept[:p.MaxResults]
	}
	if len(kept) == 0 {
		return nil
	}
	return kept
}

func refZScores(xs []float64) []float64 {
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
	out := make([]float64, len(xs))
	if std == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - mean) / std
	}
	return out
}

func expertsEqual(t *testing.T, label, query string, got, want []expertise.Expert) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %q: %d results, reference has %d", label, query, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s %q rank %d:\n  got  %+v\n  want %+v", label, query, i, got[i], want[i])
		}
	}
}

// TestSearchMatchesReferenceOnEvalQuerySets is the acceptance test of
// the perf PR: ranked e# and baseline results must be unchanged for
// every query in every evaluation query set.
func TestSearchMatchesReferenceOnEvalQuerySets(t *testing.T) {
	pipe, sets := eqState(t)
	requireReference(t, pipe.Detector, pipe.Corpus, pipe.Cfg.Online.Expertise, sets)
}

// requireReference holds det, a cold Detector over corpus c built with
// ranking parameters params, to the independent reference: for every
// query of every evaluation query set, the e# and baseline rankings and
// the e# matched-tweet count.
func requireReference(t *testing.T, det *core.Detector, c *microblog.Corpus, params expertise.Params, sets []eval.QuerySet) {
	t.Helper()
	total := 0
	for _, set := range sets {
		for _, q := range set.Queries {
			total++
			// e# path: expansion, per-term match, union, one ranking pass.
			terms := append([]string{q}, det.Expand(q)...)
			lists := make([][]microblog.TweetID, len(terms))
			for i, term := range terms {
				lists[i] = refMatch(c, term)
			}
			wantES := refRank(c, params, expertise.UnionTweets(lists...))
			gotES, trace := det.Search(q)
			expertsEqual(t, "esharp", q, gotES, wantES)
			if wantUnion := expertise.UnionTweets(lists...); trace.MatchedTweets != len(wantUnion) {
				t.Fatalf("esharp %q: trace reports %d matched tweets, reference %d",
					q, trace.MatchedTweets, len(wantUnion))
			}

			// Baseline path: single-term match, same ranking.
			wantBase := refRank(c, params, refMatch(c, q))
			expertsEqual(t, "baseline", q, det.SearchBaseline(q), wantBase)
		}
	}
	if total == 0 {
		t.Fatal("no queries in eval sets")
	}
}

// TestSiblingsShareOneAnswer is the spine step under the serving
// layer's cache key: the answer is a function of the expanded term set,
// so every eval-set query is grouped by the served detector's term-set
// key and every sibling in a group must rank the same experts over the
// same number of matched tweets as every other — and as the cold
// Detector does for that very sibling. Then the same through a Server:
// one backend computation per group, every other sibling answered from
// the first one's slot, still equal to its own cold answer.
func TestSiblingsShareOneAnswer(t *testing.T) {
	pipe, sets := eqState(t)
	idx := ingest.New(pipe.Corpus, ingest.Config{DisableCompactor: true})
	defer idx.Close()
	det := core.NewLiveDetector(pipe.Collection, idx, pipe.Cfg.Online)

	type answer struct {
		query   string
		experts []expertise.Expert
		matched int
	}
	groups := map[string][]string{}
	first := map[string]answer{}
	seen := map[string]bool{}
	for _, set := range sets {
		for _, q := range set.Queries {
			if seen[q] {
				continue
			}
			seen[q] = true
			canon := textutil.Canonical(q)
			key := det.TermSetKey([]byte(canon))
			if key == "" { // outside every domain: its own term set
				key = canon
			}
			groups[key] = append(groups[key], q)

			experts, trace := det.Search(q)
			cold, coldTrace := pipe.Detector.Search(q)
			expertsEqual(t, "served vs cold", q, experts, cold)
			if trace.MatchedTweets != coldTrace.MatchedTweets {
				t.Fatalf("%q: served matched %d tweets, cold %d", q, trace.MatchedTweets, coldTrace.MatchedTweets)
			}
			lead, ok := first[key]
			if !ok {
				first[key] = answer{q, experts, trace.MatchedTweets}
				continue
			}
			expertsEqual(t, "sibling of "+lead.query, q, experts, lead.experts)
			if trace.MatchedTweets != lead.matched {
				t.Fatalf("%q matched %d tweets, its sibling %q %d", q, trace.MatchedTweets, lead.query, lead.matched)
			}
		}
	}
	if len(groups) == len(seen) {
		t.Fatalf("%d queries, %d term sets: no two eval queries are siblings, the step checks nothing", len(seen), len(groups))
	}

	t.Logf("%d eval queries expand to %d term sets", len(seen), len(groups))

	srv := serve.New(det, serve.DefaultConfig())
	for _, siblings := range groups {
		for _, q := range siblings {
			cold, _ := pipe.Detector.Search(q)
			expertsEqual(t, "served from the group's slot", q, srv.Search(q), cold)
		}
	}
	st := srv.Stats()
	if st.CacheMisses != int64(len(groups)) || st.CacheHits != int64(len(seen)-len(groups)) || st.CacheEntries != len(groups) {
		t.Fatalf("%d queries in %d term sets: want one miss and one slot per set, got %+v", len(seen), len(groups), st)
	}
}
