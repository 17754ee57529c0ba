package community

import (
	"time"

	"repro/internal/simgraph"
)

// DetectSequential runs Newman's seminal greedy agglomerative heuristic
// (the "single-machine heuristic" of Section 4.2.1): starting from
// singletons, repeatedly merge the single pair of connected communities
// with the largest positive modularity gain, stopping when no merge
// improves the score. It is quadratic-ish and intended as the ablation
// baseline for the parallel variant, exactly as in the paper.
func DetectSequential(g *simgraph.IntGraph, opt Options) *Result {
	opt = opt.normalized()
	n := g.NumVertices()
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v)
	}
	mG := g.TotalUnits()

	res := &Result{}
	res.Iterations = append(res.Iterations, IterStats{
		Iteration:   0,
		Communities: n,
		Modularity:  Modularity(g, labels),
	})
	if mG == 0 || n == 0 {
		res.Labels, res.NumCommunities = canonicalize(labels)
		res.Modularity = Modularity(g, res.Labels)
		return res
	}

	// Community-granularity adjacency and degree sums.
	adj := make(map[int32]map[int32]int64, n)
	deg := make(map[int32]int64, n)
	for v := int32(0); int(v) < n; v++ {
		deg[v] = g.UnitDegree(v)
		for _, nb := range g.Neighbors(v) {
			if adj[v] == nil {
				adj[v] = map[int32]int64{}
			}
			adj[v][nb.To] = nb.Units
		}
	}

	start := time.Now()
	merges := 0
	for {
		// Find the best pair: max ΔMod; ties toward the smaller ids so
		// the run is deterministic despite map iteration.
		var bestA, bestB int32
		bestGain := 0.0
		found := false
		for a, nbrs := range adj {
			for b, units := range nbrs {
				if b <= a {
					continue
				}
				gain := DeltaMod(units, deg[a], deg[b], mG)
				if gain <= 0 {
					continue
				}
				if !found || gain > bestGain ||
					(gain == bestGain && (a < bestA || (a == bestA && b < bestB))) {
					bestA, bestB, bestGain, found = a, b, gain, true
				}
			}
		}
		if !found {
			break
		}
		// Merge bestB into bestA.
		for x, u := range adj[bestB] {
			delete(adj[x], bestB)
			if x == bestA {
				continue
			}
			if adj[bestA] == nil {
				adj[bestA] = map[int32]int64{}
			}
			adj[bestA][x] += u
			if adj[x] == nil {
				adj[x] = map[int32]int64{}
			}
			adj[x][bestA] += u
		}
		delete(adj, bestB)
		delete(adj[bestA], bestB)
		deg[bestA] += deg[bestB]
		delete(deg, bestB)
		for v := range labels {
			if labels[v] == bestB {
				labels[v] = bestA
			}
		}
		merges++
	}

	count := countDistinct(labels)
	res.Iterations = append(res.Iterations, IterStats{
		Iteration:   1,
		Communities: count,
		Modularity:  Modularity(g, labels),
		Merges:      merges,
		Duration:    time.Since(start),
	})
	res.Labels, res.NumCommunities = canonicalize(labels)
	res.Modularity = Modularity(g, res.Labels)
	return res
}
