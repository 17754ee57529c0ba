package expertise

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/race"
	"repro/internal/world"
	"repro/internal/xrand"
)

// referenceFullRank is the Rank kernel as it was before it worked out of
// pooled scratch, kept as the oracle: six fresh log columns, z-scores
// into six more make-zeroed ones, a fresh scored copy, sort then
// truncate. Rank must return exactly this, bit for bit.
func referenceFullRank(p Params, candidates []Expert) []Expert {
	if len(candidates) == 0 {
		return nil
	}
	z := func(feature func(e Expert) float64) []float64 {
		xs := make([]float64, len(candidates))
		var sum float64
		for i, e := range candidates {
			xs[i] = feature(e)
			sum += xs[i]
		}
		mean := sum / float64(len(xs))
		var sq float64
		for _, x := range xs {
			sq += (x - mean) * (x - mean)
		}
		std := math.Sqrt(sq / float64(len(xs)))
		out := make([]float64, len(xs))
		if std == 0 {
			return out
		}
		for i, x := range xs {
			out[i] = (x - mean) / std
		}
		return out
	}
	zTS := z(func(e Expert) float64 { return math.Log(e.TS + p.Epsilon) })
	zMI := z(func(e Expert) float64 { return math.Log(e.MI + p.Epsilon) })
	zRI := z(func(e Expert) float64 { return math.Log(e.RI + p.Epsilon) })
	wSum := p.WeightTS + p.WeightMI + p.WeightRI + p.WeightHT + p.WeightGI + p.WeightAV
	scored := slices.Clone(candidates)
	for i := range scored {
		scored[i].Score = (p.WeightTS*zTS[i] + p.WeightMI*zMI[i] + p.WeightRI*zRI[i]) / wSum
	}
	if p.WeightHT != 0 || p.WeightGI != 0 || p.WeightAV != 0 {
		zHT := z(func(e Expert) float64 { return math.Log(e.HT + p.Epsilon) })
		zGI := z(func(e Expert) float64 { return e.GI })
		zAV := z(func(e Expert) float64 { return math.Log(e.AV + p.Epsilon) })
		for i := range scored {
			scored[i].Score += (p.WeightHT*zHT[i] + p.WeightGI*zGI[i] + p.WeightAV*zAV[i]) / wSum
		}
	}
	if out := referenceRank(scored, p.MinZScore, p.MaxResults); len(out) > 0 {
		return out
	}
	return nil
}

// randomPool draws n candidates with distinct users and features in the
// ranges extraction produces; identical gives every candidate the same
// features, so a column's standard deviation is exactly zero wherever
// its mean comes out exact (always for n ≤ 2) and an ulp off elsewhere.
func randomPool(rng *xrand.RNG, n int, identical bool) []Expert {
	pool := make([]Expert, n)
	for i := range pool {
		if identical && i > 0 {
			pool[i] = pool[0]
		} else {
			pool[i] = Expert{
				TS: rng.Float64(), MI: rng.Float64(), RI: rng.Float64(),
				HT: rng.Float64(), GI: math.Log1p(float64(rng.Intn(100000))), AV: 40 * rng.Float64(),
				OnTopicTweets: 1 + rng.Intn(50),
			}
		}
		pool[i].User = world.UserID(7 * i)
	}
	return pool
}

// firstDiff describes the first position two rankings disagree at.
func firstDiff(got, want []Expert) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return "one is a prefix of the other"
}

// rankParamSets covers both scoring branches and both selection tails
// (bounded top-k, full sort).
func rankParamSets() []Params {
	var sets []Params
	for _, base := range []Params{DefaultParams(), ExtendedParams()} {
		for _, max := range []int{15, 0} {
			p := base
			p.MaxResults = max
			p.MinZScore = -0.25
			sets = append(sets, p)
		}
	}
	return sets
}

// TestRankScratchReuse proves Rank's pooled scratch carries nothing
// from one call into the next: one Ranker, fed pools that shrink, grow
// and turn constant (a zero standard deviation must zero a column that
// still holds the previous call's values), returns exactly what the
// allocating reference and a fresh Ranker return; it never writes to
// its input nor to a slice it returned earlier (serve caches those);
// ranking into a reused destination returns the same experts after
// whatever dst already held; and it allocates the returned slice and
// nothing else, nothing at all into a destination with room.
func TestRankScratchReuse(t *testing.T) {
	rng := xrand.New(4242)
	sizes := []struct {
		n         int
		identical bool
	}{{300, false}, {3, false}, {220, false}, {32, true}, {1, false}, {500, false}, {2, true}, {64, false}}
	for pi, p := range rankParamSets() {
		shared := NewRanker(1, p)
		var prev, prevCopy, reused []Expert
		for si, sz := range sizes {
			pool := randomPool(rng, sz.n, sz.identical)
			input := slices.Clone(pool)
			got := shared.Rank(nil, pool)
			if !slices.Equal(pool, input) {
				t.Fatalf("params %d pool %d: Rank modified its input", pi, si)
			}
			if want := referenceFullRank(shared.Params(), input); !slices.Equal(got, want) {
				t.Fatalf("params %d pool %d (n=%d identical=%v): reused scratch ranks %d experts, the reference %d; %s",
					pi, si, sz.n, sz.identical, len(got), len(want), firstDiff(got, want))
			}
			if fresh := NewRanker(1, p).Rank(nil, input); !slices.Equal(got, fresh) {
				t.Fatalf("params %d pool %d: reused scratch differs from a fresh Ranker", pi, si)
			}
			if !slices.Equal(prev, prevCopy) {
				t.Fatalf("params %d pool %d: Rank overwrote the slice the previous call returned", pi, si)
			}
			head := Expert{User: 99999, Score: -1}
			reused = shared.Rank(append(reused[:0], head), pool)
			if len(reused) == 0 || reused[0] != head || !slices.Equal(reused[1:], got) {
				t.Fatalf("params %d pool %d: ranking into a reused destination differs", pi, si)
			}
			prev, prevCopy = got, slices.Clone(got)
		}
	}

	// Concurrent Ranks on one Ranker, each against its precomputed
	// reference: scratch is per call, never shared between two in flight.
	p := ExtendedParams()
	shared := NewRanker(1, p)
	pools := make([][]Expert, 12)
	wants := make([][]Expert, len(pools))
	for i := range pools {
		pools[i] = randomPool(rng, 1+rng.Intn(400), i%5 == 4)
		wants[i] = referenceFullRank(shared.Params(), pools[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 150; it++ {
				i := (g + 5*it) % len(pools)
				if got := shared.Rank(nil, pools[i]); !slices.Equal(got, wants[i]) {
					t.Errorf("goroutine %d iteration %d: concurrent Rank of pool %d differs from the reference", g, it, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// The allocation pin. Under the race detector sync.Pool drops a
	// quarter of its Puts and the scratch is sometimes rebuilt.
	pool := randomPool(rng, 200, false)
	for _, c := range []struct {
		name  string
		minZ  float64
		reuse bool
		want  float64
	}{{"non-empty result", 0, false, 1}, {"empty result", 1e9, false, 0}, {"into a reused ranking", 0, true, 0}} {
		p := DefaultParams()
		p.MinZScore = c.minZ
		r := NewRanker(1, p)
		dst := r.Rank(nil, pool) // grow the scratch
		allocs := testing.AllocsPerRun(200, func() {
			if c.reuse {
				dst = r.Rank(dst[:0], pool)
			} else {
				r.Rank(nil, pool)
			}
		})
		if allocs != c.want && !(race.Enabled && allocs <= c.want+4) {
			t.Errorf("%s: Rank allocates %v times, want %v", c.name, allocs, c.want)
		}
	}
}
