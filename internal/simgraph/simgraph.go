// Package simgraph builds the term similarity graph of Section 4.1: each
// vertex is a surviving query string, and two queries are connected with
// the cosine similarity of their click-URL vectors.
//
// Instead of comparing every possible pair (quadratic in the vocabulary),
// the builder walks an inverted index from URL to the queries that
// clicked it: only query pairs sharing at least one URL can have non-zero
// similarity, which is exactly the sparsity a production implementation
// exploits. URL postings are processed in parallel worker partitions and
// the partial dot-products merged.
package simgraph

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/querylog"
)

// Config controls graph construction.
type Config struct {
	// MinSimilarity prunes edges below this cosine similarity; the paper
	// keeps the graph sparse to make clustering tractable.
	MinSimilarity float64
	// ProximityFloor keeps edges in [ProximityFloor, MinSimilarity) as a
	// separate weak tier: too faint to influence clustering, but exactly
	// what connects a community to its neighbors in Figure 7. Zero
	// disables the weak tier.
	ProximityFloor float64
	// MaxNeighbors, when positive, keeps only the top-k strongest edges
	// per vertex (a standard sparsification; 0 disables it).
	MaxNeighbors int
	// Workers is the number of concurrent partitions used for the
	// inverted-index sweep. Zero means 4.
	Workers int
}

// DefaultConfig returns the construction defaults used by the pipeline.
// The similarity floor is calibrated so that intra-topic keyword pairs
// (which share most of their click mass) stay connected while pairs that
// only co-occur on category hubs or noise clicks are pruned — real
// query-log graphs are similarly fragmented, which is what gives the
// paper its many small communities (Figure 6).
func DefaultConfig() Config {
	return Config{MinSimilarity: 0.25, ProximityFloor: 0.04, MaxNeighbors: 0, Workers: 4}
}

// Neighbor is one adjacency entry.
type Neighbor struct {
	To     int32
	Weight float64
}

// Edge is an undirected weighted edge with A < B.
type Edge struct {
	A, B   int32
	Weight float64
}

// Graph is the weighted undirected term similarity graph.
type Graph struct {
	terms []string
	index map[string]int32
	adj   [][]Neighbor
	edges int
	// weak holds sub-threshold edges (each once, A < B), used only for
	// inter-domain proximity, never for clustering.
	weak []Edge
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.terms) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Term returns the query string of vertex v.
func (g *Graph) Term(v int32) string { return g.terms[v] }

// Terms returns all vertex labels indexed by vertex id.
func (g *Graph) Terms() []string { return g.terms }

// Vertex returns the vertex id of a term.
func (g *Graph) Vertex(term string) (int32, bool) {
	v, ok := g.index[term]
	return v, ok
}

// Neighbors returns the adjacency list of v (do not mutate).
func (g *Graph) Neighbors(v int32) []Neighbor { return g.adj[v] }

// Edges returns every undirected edge once, sorted by (A, B).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for a := int32(0); int(a) < len(g.adj); a++ {
		for _, n := range g.adj[a] {
			if n.To > a {
				out = append(out, Edge{A: a, B: n.To, Weight: n.Weight})
			}
		}
	}
	return out
}

// WeakEdges returns the sub-threshold proximity edges (each once,
// A < B, sorted). Do not mutate.
func (g *Graph) WeakEdges() []Edge { return g.weak }

// WeightBetween returns the edge weight between two vertices (0 if absent).
func (g *Graph) WeightBetween(a, b int32) float64 {
	for _, n := range g.adj[a] {
		if n.To == b {
			return n.Weight
		}
	}
	return 0
}

// Build constructs the similarity graph from an aggregated click log.
func Build(log *querylog.Log, cfg Config) *Graph {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	terms := log.Queries()
	g := &Graph{
		terms: terms,
		index: make(map[string]int32, len(terms)),
		adj:   make([][]Neighbor, len(terms)),
	}
	for i, t := range terms {
		g.index[t] = int32(i)
	}

	// Vector norms and the URL -> postings inverted index.
	norms := make([]float64, len(terms))
	postings := map[string][]posting{}
	for i, t := range terms {
		vec := log.Vector(t)
		var sq float64
		for u, c := range vec {
			fc := float64(c)
			sq += fc * fc
			postings[u] = append(postings[u], posting{term: int32(i), clicks: fc})
		}
		norms[i] = math.Sqrt(sq)
	}

	// Deterministic partition of URLs over workers.
	urls := make([]string, 0, len(postings))
	for u := range postings {
		urls = append(urls, u)
	}
	sort.Strings(urls)

	partials := make([]map[uint64]float64, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dots := map[uint64]float64{}
			for i := w; i < len(urls); i += cfg.Workers {
				ps := postings[urls[i]]
				for a := 0; a < len(ps); a++ {
					for b := a + 1; b < len(ps); b++ {
						dots[pairKey(ps[a].term, ps[b].term)] += ps[a].clicks * ps[b].clicks
					}
				}
			}
			partials[w] = dots
		}(w)
	}
	wg.Wait()

	// Merge partials and emit edges above the similarity floor.
	merged := partials[0]
	for _, p := range partials[1:] {
		for k, v := range p {
			merged[k] += v
		}
	}
	for k, dot := range merged {
		a, b := unpairKey(k)
		sim := dot / (norms[a] * norms[b])
		switch {
		case sim >= cfg.MinSimilarity:
			g.adj[a] = append(g.adj[a], Neighbor{To: b, Weight: sim})
			g.adj[b] = append(g.adj[b], Neighbor{To: a, Weight: sim})
			g.edges++
		case cfg.ProximityFloor > 0 && sim >= cfg.ProximityFloor:
			g.weak = append(g.weak, Edge{A: a, B: b, Weight: sim})
		}
	}
	sort.Slice(g.weak, func(i, j int) bool {
		if g.weak[i].A != g.weak[j].A {
			return g.weak[i].A < g.weak[j].A
		}
		return g.weak[i].B < g.weak[j].B
	})
	for v := range g.adj {
		sortNeighbors(g.adj[v])
	}
	if cfg.MaxNeighbors > 0 {
		g.sparsify(cfg.MaxNeighbors)
	}
	return g
}

type posting struct {
	term   int32
	clicks float64
}

func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func unpairKey(k uint64) (int32, int32) {
	return int32(k >> 32), int32(k & 0xffffffff)
}

func sortNeighbors(ns []Neighbor) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].To < ns[j].To })
}

// sparsify keeps, for each vertex, the k strongest incident edges; an
// edge survives if either endpoint ranks it in its top k (the usual
// mutual-OR rule so the graph stays symmetric).
func (g *Graph) sparsify(k int) {
	keep := map[uint64]bool{}
	for v := range g.adj {
		ns := make([]Neighbor, len(g.adj[v]))
		copy(ns, g.adj[v])
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].Weight != ns[j].Weight {
				return ns[i].Weight > ns[j].Weight
			}
			return ns[i].To < ns[j].To
		})
		for i := 0; i < len(ns) && i < k; i++ {
			keep[pairKey(int32(v), ns[i].To)] = true
		}
	}
	edges := 0
	for v := range g.adj {
		filtered := g.adj[v][:0]
		for _, n := range g.adj[v] {
			if keep[pairKey(int32(v), n.To)] {
				filtered = append(filtered, n)
				if n.To > int32(v) {
					edges++
				}
			}
		}
		g.adj[v] = filtered
	}
	g.edges = edges
}

// FromEdges builds a graph directly from labelled edges; used by tests,
// examples and the community-detection benchmarks that bypass the click
// pipeline. Duplicate edges accumulate weight; self-loops are rejected.
func FromEdges(labels []string, edges []Edge) (*Graph, error) {
	g := &Graph{
		terms: labels,
		index: make(map[string]int32, len(labels)),
		adj:   make([][]Neighbor, len(labels)),
	}
	for i, t := range labels {
		if _, dup := g.index[t]; dup {
			return nil, fmt.Errorf("simgraph: duplicate label %q", t)
		}
		g.index[t] = int32(i)
	}
	acc := map[uint64]float64{}
	for _, e := range edges {
		if e.A == e.B {
			return nil, fmt.Errorf("simgraph: self-loop on vertex %d", e.A)
		}
		if int(e.A) < 0 || int(e.A) >= len(labels) || int(e.B) < 0 || int(e.B) >= len(labels) {
			return nil, fmt.Errorf("simgraph: edge (%d,%d) out of range", e.A, e.B)
		}
		if e.Weight <= 0 {
			return nil, fmt.Errorf("simgraph: non-positive weight on edge (%d,%d)", e.A, e.B)
		}
		acc[pairKey(e.A, e.B)] += e.Weight
	}
	keys := make([]uint64, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		a, b := unpairKey(k)
		w := acc[k]
		g.adj[a] = append(g.adj[a], Neighbor{To: b, Weight: w})
		g.adj[b] = append(g.adj[b], Neighbor{To: a, Weight: w})
		g.edges++
	}
	for v := range g.adj {
		sortNeighbors(g.adj[v])
	}
	return g, nil
}

// Discretize converts the real-valued similarity weights into the
// integer multi-edge representation of the paper's footnote 1 ("rescale
// and discretize the weights to obtain integers; create one edge for
// each unit"). Every surviving edge carries at least one unit.
// resolution is the number of units a weight of 1.0 maps to.
func (g *Graph) Discretize(resolution int) *IntGraph {
	if resolution <= 0 {
		resolution = 10
	}
	ig := &IntGraph{
		terms: g.terms,
		adj:   make([][]IntNeighbor, len(g.terms)),
	}
	for a := int32(0); int(a) < len(g.adj); a++ {
		for _, n := range g.adj[a] {
			if n.To <= a {
				continue
			}
			units := int64(math.Round(n.Weight * float64(resolution)))
			if units < 1 {
				units = 1
			}
			ig.adj[a] = append(ig.adj[a], IntNeighbor{To: n.To, Units: units})
			ig.adj[n.To] = append(ig.adj[n.To], IntNeighbor{To: a, Units: units})
			ig.totalUnits += units
			ig.edges++
		}
	}
	for v := range ig.adj {
		sort.Slice(ig.adj[v], func(i, j int) bool { return ig.adj[v][i].To < ig.adj[v][j].To })
	}
	return ig
}

// IntNeighbor is an adjacency entry of an IntGraph: Units parallel edges
// to the target vertex.
type IntNeighbor struct {
	To    int32
	Units int64
}

// IntGraph is the discretized multigraph consumed by modularity
// maximization: edge weights are integer unit counts.
type IntGraph struct {
	terms      []string
	adj        [][]IntNeighbor
	edges      int
	totalUnits int64
}

// NumVertices returns the vertex count.
func (g *IntGraph) NumVertices() int { return len(g.terms) }

// NumEdges returns the number of distinct vertex pairs with an edge.
func (g *IntGraph) NumEdges() int { return g.edges }

// TotalUnits returns m_G: the total number of unit edges in the graph.
func (g *IntGraph) TotalUnits() int64 { return g.totalUnits }

// Term returns the label of vertex v.
func (g *IntGraph) Term(v int32) string { return g.terms[v] }

// Terms returns all vertex labels indexed by vertex id.
func (g *IntGraph) Terms() []string { return g.terms }

// Neighbors returns the adjacency list of v (do not mutate).
func (g *IntGraph) Neighbors(v int32) []IntNeighbor { return g.adj[v] }

// UnitDegree returns the unit-edge degree of v (sum of incident units).
func (g *IntGraph) UnitDegree(v int32) int64 {
	var d int64
	for _, n := range g.adj[v] {
		d += n.Units
	}
	return d
}

// FromIntEdges builds an IntGraph directly; used in tests and benches.
// Duplicate pairs accumulate units.
func FromIntEdges(labels []string, edges []Edge) (*IntGraph, error) {
	g, err := FromEdges(labels, edges)
	if err != nil {
		return nil, err
	}
	return g.Discretize(1), nil
}
