package community

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/querylog"
	"repro/internal/simgraph"
	"repro/internal/world"
)

// cliqueGraph builds k cliques of size s with intra-edge weight 10 and a
// weak weight-1 bridge chaining consecutive cliques.
func cliqueGraph(t testing.TB, k, s int) *simgraph.IntGraph {
	t.Helper()
	n := k * s
	labels := make([]string, n)
	for i := range labels {
		labels[i] = "v" + string(rune('a'+i/26)) + string(rune('a'+i%26))
	}
	var edges []simgraph.Edge
	for c := 0; c < k; c++ {
		base := c * s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				edges = append(edges, simgraph.Edge{A: int32(base + i), B: int32(base + j), Weight: 10})
			}
		}
		if c > 0 {
			edges = append(edges, simgraph.Edge{A: int32((c-1)*s + s - 1), B: int32(base), Weight: 1})
		}
	}
	g, err := simgraph.FromIntEdges(labels, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomGraph builds a reproducible random graph for property tests.
func randomGraph(t testing.TB, seed uint64, n int, p float64, maxW int) *simgraph.IntGraph {
	t.Helper()
	labels := make([]string, n)
	for i := range labels {
		labels[i] = "n" + string(rune('A'+i/26)) + string(rune('A'+i%26))
	}
	var edges []simgraph.Edge
	s := seed
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 11
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if float64(next()%1000)/1000 < p {
				edges = append(edges, simgraph.Edge{A: int32(a), B: int32(b), Weight: float64(1 + next()%uint64(maxW))})
			}
		}
	}
	g, err := simgraph.FromIntEdges(labels, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParallelSeparatesCliques(t *testing.T) {
	g := cliqueGraph(t, 2, 5)
	res := DetectParallel(g, DefaultOptions())
	if res.NumCommunities != 2 {
		t.Fatalf("found %d communities, want 2", res.NumCommunities)
	}
	// All members of clique 0 share a label distinct from clique 1.
	for v := 1; v < 5; v++ {
		if res.Labels[v] != res.Labels[0] {
			t.Errorf("vertex %d not with clique 0", v)
		}
	}
	for v := 6; v < 10; v++ {
		if res.Labels[v] != res.Labels[5] {
			t.Errorf("vertex %d not with clique 1", v)
		}
	}
	if res.Labels[0] == res.Labels[5] {
		t.Error("cliques merged")
	}
}

func TestParallelManyCliques(t *testing.T) {
	g := cliqueGraph(t, 6, 4)
	res := DetectParallel(g, DefaultOptions())
	if res.NumCommunities != 6 {
		t.Fatalf("found %d communities, want 6", res.NumCommunities)
	}
	if res.Modularity < 0.5 {
		t.Errorf("modularity %v too low for planted cliques", res.Modularity)
	}
}

func TestSequentialSeparatesCliques(t *testing.T) {
	g := cliqueGraph(t, 3, 4)
	res := DetectSequential(g, DefaultOptions())
	if res.NumCommunities != 3 {
		t.Fatalf("sequential found %d communities, want 3", res.NumCommunities)
	}
}

func TestSQLBackendMatchesParallelOnCliques(t *testing.T) {
	g := cliqueGraph(t, 3, 4)
	mem := DetectParallel(g, DefaultOptions())
	sql, err := DetectSQL(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, mem, sql)
}

func TestSQLBackendMatchesParallelOnRandomGraphs(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1234} {
		g := randomGraph(t, seed, 24, 0.18, 5)
		mem := DetectParallel(g, DefaultOptions())
		sql, err := DetectSQL(g, DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !sameLabels(mem.Labels, sql.Labels) {
			t.Errorf("seed %d: backends disagree\nmem: %v\nsql: %v", seed, mem.Labels, sql.Labels)
		}
		if len(mem.Iterations) != len(sql.Iterations) {
			t.Errorf("seed %d: iteration counts differ: %d vs %d",
				seed, len(mem.Iterations), len(sql.Iterations))
		}
	}
}

func TestSQLBackendMatchesParallelEdgeWeightMetric(t *testing.T) {
	opt := DefaultOptions()
	opt.Metric = MetricEdgeWeight
	g := randomGraph(t, 99, 20, 0.25, 7)
	mem := DetectParallel(g, opt)
	sql, err := DetectSQL(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, mem, sql)
}

func TestParallelWorkerInvariance(t *testing.T) {
	g := randomGraph(t, 5, 40, 0.12, 4)
	opt := DefaultOptions()
	opt.Workers = 1
	a := DetectParallel(g, opt)
	opt.Workers = 7
	b := DetectParallel(g, opt)
	assertSameResult(t, a, b)
}

func TestModularityHandComputed(t *testing.T) {
	// Two vertices, one edge of 4 units. Split: Q = 0 - 2*(4/16)... wait:
	// mG=4, D_G=8. Singletons: intra=0 each, deg=4 each.
	// Q = 2*(0/4 - (4/8)^2) = -0.5. Merged: Q = 4/4 - (8/8)^2 = 0.
	g, err := simgraph.FromIntEdges([]string{"a", "b"}, []simgraph.Edge{{A: 0, B: 1, Weight: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if q := Modularity(g, []int32{0, 1}); math.Abs(q-(-0.5)) > 1e-12 {
		t.Errorf("split Q = %v, want -0.5", q)
	}
	if q := Modularity(g, []int32{0, 0}); math.Abs(q) > 1e-12 {
		t.Errorf("merged Q = %v, want 0", q)
	}
}

func TestDeltaModMatchesModularityDifference(t *testing.T) {
	// Invariant (eq. 7/8): merging two communities changes raw total
	// modularity by exactly DeltaMod(interUnits, D1, D2, mG).
	for _, seed := range []uint64{3, 11, 29} {
		g := randomGraph(t, seed, 14, 0.3, 6)
		mG := g.TotalUnits()
		if mG == 0 {
			continue
		}
		// Partition: three blocks by vertex index.
		labels := make([]int32, g.NumVertices())
		for v := range labels {
			labels[v] = int32(v % 3)
		}
		qBefore := Modularity(g, labels) * float64(mG)

		// Merge community 1 into 0.
		var inter, d0, d1 int64
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			if labels[v] == 0 {
				d0 += g.UnitDegree(v)
			}
			if labels[v] == 1 {
				d1 += g.UnitDegree(v)
			}
			for _, nb := range g.Neighbors(v) {
				if nb.To > v {
					a, b := labels[v], labels[nb.To]
					if (a == 0 && b == 1) || (a == 1 && b == 0) {
						inter += nb.Units
					}
				}
			}
		}
		merged := make([]int32, len(labels))
		for v := range labels {
			merged[v] = labels[v]
			if merged[v] == 1 {
				merged[v] = 0
			}
		}
		qAfter := Modularity(g, merged) * float64(mG)
		want := DeltaMod(inter, d0, d1, mG)
		if math.Abs((qAfter-qBefore)-want) > 1e-6 {
			t.Errorf("seed %d: ΔQ = %v, DeltaMod = %v", seed, qAfter-qBefore, want)
		}
	}
}

func TestConvergenceTrace(t *testing.T) {
	g := cliqueGraph(t, 5, 5)
	res := DetectParallel(g, DefaultOptions())
	if len(res.Iterations) < 2 {
		t.Fatal("no iterations recorded")
	}
	if res.Iterations[0].Communities != g.NumVertices() {
		t.Errorf("iteration 0 count = %d, want %d", res.Iterations[0].Communities, g.NumVertices())
	}
	for i := 1; i < len(res.Iterations); i++ {
		if res.Iterations[i].Communities > res.Iterations[i-1].Communities {
			t.Errorf("community count increased at iteration %d", i)
		}
	}
	last := res.Iterations[len(res.Iterations)-1]
	if last.Communities != res.NumCommunities {
		t.Errorf("final trace count %d != result %d", last.Communities, res.NumCommunities)
	}
}

func TestCanonicalLabels(t *testing.T) {
	labels, n := canonicalize([]int32{7, 7, 3, 3, 9})
	if n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
	want := []int32{0, 0, 1, 1, 2}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("canonical labels = %v, want %v", labels, want)
		}
	}
}

func TestSizeHistogram(t *testing.T) {
	r := &Result{Labels: []int32{0, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, NumCommunities: 3}
	h := r.SizeHistogram()
	if h[0] != 1 || h[1] != 1 || h[2] != 1 || h[3] != 0 {
		t.Errorf("histogram = %v", h)
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := simgraph.FromIntEdges([]string{"a", "b", "c"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := DetectParallel(g, DefaultOptions())
	if res.NumCommunities != 3 {
		t.Errorf("edgeless graph: %d communities, want 3 singletons", res.NumCommunities)
	}
	seq := DetectSequential(g, DefaultOptions())
	if seq.NumCommunities != 3 {
		t.Errorf("sequential on edgeless graph: %d", seq.NumCommunities)
	}
	sql, err := DetectSQL(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sql.NumCommunities != 3 {
		t.Errorf("sql on edgeless graph: %d", sql.NumCommunities)
	}
}

func TestMaxIterationsRespected(t *testing.T) {
	g := cliqueGraph(t, 6, 4)
	opt := DefaultOptions()
	opt.MaxIterations = 1
	res := DetectParallel(g, opt)
	// Iteration 0 plus exactly one working iteration.
	if len(res.Iterations) > 2 {
		t.Errorf("ran %d iterations with MaxIterations=1", len(res.Iterations)-1)
	}
}

func TestWorldGraphCommunitiesAlignWithTopics(t *testing.T) {
	w := world.Build(world.TinyConfig())
	log := querylog.AggregateRecords(
		querylog.NewGenerator(w, querylog.TinyGenConfig()).GenerateRecords(), 5)
	sg := simgraph.Build(log, simgraph.DefaultConfig())
	ig := sg.Discretize(20)
	res := DetectParallel(ig, DefaultOptions())
	if res.NumCommunities < 5 {
		t.Fatalf("only %d communities on world graph", res.NumCommunities)
	}
	// 49ers and niners must co-cluster; 49ers and diabetes must not.
	v49, ok1 := sg.Vertex("49ers")
	vNiners, ok2 := sg.Vertex("niners")
	vDiab, ok3 := sg.Vertex("diabetes")
	if !ok1 || !ok2 || !ok3 {
		t.Skip("anchor terms missing from tiny graph")
	}
	if res.Labels[v49] != res.Labels[vNiners] {
		t.Error("49ers and niners in different communities")
	}
	if res.Labels[v49] == res.Labels[vDiab] {
		t.Error("49ers and diabetes merged into one community")
	}
}

func TestMembersPartition(t *testing.T) {
	g := randomGraph(t, 17, 30, 0.15, 4)
	res := DetectParallel(g, DefaultOptions())
	seen := make([]bool, g.NumVertices())
	for _, members := range res.Members() {
		for _, v := range members {
			if seen[v] {
				t.Fatalf("vertex %d in two communities", v)
			}
			seen[v] = true
		}
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("vertex %d missing from Members()", v)
		}
	}
}

func assertSameResult(t *testing.T, a, b *Result) {
	t.Helper()
	if a.NumCommunities != b.NumCommunities {
		t.Fatalf("community counts differ: %d vs %d", a.NumCommunities, b.NumCommunities)
	}
	if !sameLabels(a.Labels, b.Labels) {
		t.Fatalf("labels differ:\n%v\n%v", a.Labels, b.Labels)
	}
}

func sameLabels(a, b []int32) bool {
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

func BenchmarkDetectParallel(b *testing.B) {
	g := cliqueGraph(b, 20, 8)
	opt := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DetectParallel(g, opt)
	}
}

func BenchmarkDetectSQL(b *testing.B) {
	g := cliqueGraph(b, 8, 5)
	opt := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DetectSQL(g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCanonicalizeProperties(t *testing.T) {
	prop := func(raw []int32) bool {
		if len(raw) == 0 {
			return true
		}
		labels, n := canonicalize(raw)
		if len(labels) != len(raw) {
			return false
		}
		// Dense range [0, n).
		seen := map[int32]bool{}
		for _, l := range labels {
			if l < 0 || int(l) >= n {
				return false
			}
			seen[l] = true
		}
		if len(seen) != n {
			return false
		}
		// Same-partition structure preserved.
		for i := range raw {
			for j := range raw {
				if (raw[i] == raw[j]) != (labels[i] == labels[j]) {
					return false
				}
			}
		}
		// Idempotent.
		again, n2 := canonicalize(labels)
		if n2 != n {
			return false
		}
		for i := range labels {
			if again[i] != labels[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestModularityBounds(t *testing.T) {
	// Q is at most 1 and at least -1 for any labelling of any graph.
	for _, seed := range []uint64{2, 13, 77} {
		g := randomGraph(t, seed, 18, 0.25, 5)
		for block := 1; block <= 4; block++ {
			labels := make([]int32, g.NumVertices())
			for v := range labels {
				labels[v] = int32(v % block)
			}
			q := Modularity(g, labels)
			if q > 1 || q < -1 {
				t.Fatalf("seed %d blocks %d: Q=%v out of [-1,1]", seed, block, q)
			}
		}
	}
}

func TestStarContractionStrictlyDecreases(t *testing.T) {
	// Every recorded iteration with merges > 0 must strictly decrease
	// the community count; a converged run ends because no positive
	// pair remains, never by swapping labels forever.
	for _, seed := range []uint64{4, 9, 51} {
		g := randomGraph(t, seed, 40, 0.15, 4)
		res := DetectParallel(g, DefaultOptions())
		for i := 1; i < len(res.Iterations); i++ {
			if res.Iterations[i].Communities >= res.Iterations[i-1].Communities {
				t.Fatalf("seed %d: iteration %d did not decrease count (%d -> %d)",
					seed, i, res.Iterations[i-1].Communities, res.Iterations[i].Communities)
			}
		}
	}
}

func TestMetricsProduceValidPartitions(t *testing.T) {
	g := randomGraph(t, 23, 30, 0.2, 6)
	for _, metric := range []Metric{MetricDeltaMod, MetricEdgeWeight} {
		opt := DefaultOptions()
		opt.Metric = metric
		res := DetectParallel(g, opt)
		if res.NumCommunities <= 0 || res.NumCommunities > g.NumVertices() {
			t.Errorf("metric %v: %d communities", metric, res.NumCommunities)
		}
		for _, l := range res.Labels {
			if int(l) >= res.NumCommunities {
				t.Fatalf("metric %v: label out of range", metric)
			}
		}
	}
}

func TestSequentialNeverDecreasesModularity(t *testing.T) {
	// The greedy merges only on positive gain, so final Q must be at
	// least the all-singletons Q.
	g := randomGraph(t, 31, 20, 0.3, 4)
	res := DetectSequential(g, DefaultOptions())
	if len(res.Iterations) < 2 {
		t.Skip("no merges")
	}
	if res.Iterations[len(res.Iterations)-1].Modularity < res.Iterations[0].Modularity {
		t.Errorf("sequential decreased modularity: %v -> %v",
			res.Iterations[0].Modularity, res.Iterations[len(res.Iterations)-1].Modularity)
	}
}
