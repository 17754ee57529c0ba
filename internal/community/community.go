// Package community implements the paper's community detection layer
// (Section 4.2): modularity bookkeeping, Newman's sequential greedy
// heuristic, the paper's parallel three-step algorithm (neighborhood
// creation, neighborhood separation, aggregation), and — because the
// paper's headline engineering claim is that the algorithm "can be
// directly implemented in a SQL-like language" — a second implementation
// of the very same algorithm executed as relational-operator plans on
// internal/relops.
//
// All detectors consume the discretized multigraph of simgraph.IntGraph
// (paper footnote 1) and produce canonical, backend-independent labels,
// so tests can require the SQL and in-memory backends to agree exactly.
//
// One ambiguity in the paper is resolved here, as documented in
// DESIGN.md: the Figure 4 pseudo-SQL renames each community to its
// chosen neighbor, which livelocks when two communities choose each
// other (the membership merely swaps). We therefore aggregate by "star
// contraction": every community adopts its chosen leader's id, and the
// two members of a mutual choice merge under the smaller id. Because
// gains are symmetric and ties break toward smaller ids, best-choice
// cycles longer than two cannot exist, so each iteration strictly
// shrinks the community count — matching the gradual convergence the
// paper reports in Figure 5. The in-memory backend applies the rule
// directly; the SQL backend detects mutual pairs with a self-join of
// the choice relation — and both yield identical partitions.
package community

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/relops"
	"repro/internal/simgraph"
)

// Metric selects the closeness measure used in step 2 (neighborhood
// separation) when a community picks its best neighborhood.
type Metric int

const (
	// MetricDeltaMod follows the prose: "keep the closest one (ΔMod is as
	// large as possible)". This is the default.
	MetricDeltaMod Metric = iota
	// MetricEdgeWeight follows the literal SQL, which argmaxes the raw
	// graph distance (here: inter-community edge units). ΔMod > 0 still
	// gates candidacy.
	MetricEdgeWeight
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricDeltaMod:
		return "delta-mod"
	case MetricEdgeWeight:
		return "edge-weight"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// Options configures a detection run.
type Options struct {
	// Metric is the neighborhood-separation closeness measure.
	Metric Metric
	// MaxIterations caps the outer loop (the paper observes convergence
	// after ~6 iterations; default 20).
	MaxIterations int
	// Workers is the parallelism for partitioned phases (default 4).
	Workers int
	// SQLJoin selects the physical join plan used by the relational
	// backend (Section 4.2.3: replicated vs chained map-side joins).
	// Only DetectSQL consults it.
	SQLJoin relops.JoinStrategy
}

// DefaultOptions returns the defaults used by the pipeline.
func DefaultOptions() Options {
	return Options{
		Metric:        MetricDeltaMod,
		MaxIterations: 20,
		Workers:       4,
		SQLJoin:       relops.ReplicatedJoin,
	}
}

func (o Options) normalized() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 20
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	return o
}

// IterStats records the state after one outer iteration (plus an entry
// for iteration 0, the initial all-singletons state) — the data behind
// Figure 5.
type IterStats struct {
	Iteration   int
	Communities int
	// Modularity is the normalized total modularity Q of the partition.
	Modularity float64
	// Merges is the reduction in community count during this iteration.
	Merges   int
	Duration time.Duration
}

// Result is a completed detection run.
type Result struct {
	// Labels assigns each vertex a dense community id in [0, NumCommunities).
	// Labels are canonical: communities are numbered by their smallest
	// vertex id, so equal partitions have equal labels regardless of the
	// backend that produced them.
	Labels []int32
	// NumCommunities is the number of distinct communities.
	NumCommunities int
	// Iterations traces the convergence (Figure 5).
	Iterations []IterStats
	// Modularity is the normalized total modularity Q of the final
	// partition.
	Modularity float64
}

// Members returns the vertex sets per community, indexed by label, each
// sorted ascending.
func (r *Result) Members() [][]int32 {
	out := make([][]int32, r.NumCommunities)
	for v, c := range r.Labels {
		out[c] = append(out[c], int32(v))
	}
	return out
}

// SizeHistogram buckets community sizes as in Figure 6:
// [singletons, 2–10, 11–50, >50].
func (r *Result) SizeHistogram() [4]int {
	var hist [4]int
	for _, members := range r.Members() {
		switch n := len(members); {
		case n == 1:
			hist[0]++
		case n <= 10:
			hist[1]++
		case n <= 50:
			hist[2]++
		default:
			hist[3]++
		}
	}
	return hist
}

// canonicalize renames arbitrary community labels to dense ids ordered
// by each community's smallest vertex, and counts communities.
func canonicalize(labels []int32) ([]int32, int) {
	minVertex := map[int32]int32{}
	for v := int32(0); int(v) < len(labels); v++ {
		c := labels[v]
		if cur, ok := minVertex[c]; !ok || v < cur {
			minVertex[c] = v
		}
	}
	roots := make([]int32, 0, len(minVertex))
	for _, mv := range minVertex {
		roots = append(roots, mv)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	rank := make(map[int32]int32, len(roots))
	for i, mv := range roots {
		rank[mv] = int32(i)
	}
	out := make([]int32, len(labels))
	for v := range labels {
		out[v] = rank[minVertex[labels[v]]]
	}
	return out, len(roots)
}

// Modularity computes the normalized total modularity Q of a labelling:
//
//	Q = Σ_C [ m_C/m_G − (D_C/D_G)² ]
//
// with m_C the intra-community units, D_C the community's unit-degree
// sum and D_G = 2·m_G (equations 1–6 of the paper, divided by the
// constant m_G as the paper notes many authors do).
func Modularity(g *simgraph.IntGraph, labels []int32) float64 {
	if len(labels) != g.NumVertices() {
		panic("community: label slice length mismatch")
	}
	mG := float64(g.TotalUnits())
	if mG == 0 {
		return 0
	}
	intra := map[int32]int64{}
	deg := map[int32]int64{}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		for _, n := range g.Neighbors(v) {
			deg[labels[v]] += n.Units
			if n.To > v && labels[v] == labels[n.To] {
				intra[labels[v]] += n.Units
			}
		}
	}
	q := 0.0
	for c, d := range deg {
		frac := float64(d) / (2 * mG)
		q += float64(intra[c])/mG - frac*frac
	}
	return q
}

// DeltaMod computes the modularity gain of merging two communities given
// the inter-community units and the two degree sums (equations 8–9):
//
//	ΔMod = m_{1↔2} − D₁·D₂ / (2·m_G)
func DeltaMod(interUnits, d1, d2, mG int64) float64 {
	return float64(interUnits) - float64(d1)*float64(d2)/(2*float64(mG))
}

// vertexDegrees precomputes every vertex's unit degree.
func vertexDegrees(g *simgraph.IntGraph) []int64 {
	deg := make([]int64, g.NumVertices())
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		deg[v] = g.UnitDegree(v)
	}
	return deg
}

// packPair encodes an unordered community pair with the smaller id high.
func packPair(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func unpackPair(k uint64) (int32, int32) {
	return int32(k >> 32), int32(k & 0xffffffff)
}
