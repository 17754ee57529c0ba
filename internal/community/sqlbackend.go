package community

import (
	"fmt"
	"time"

	"repro/internal/relops"
	"repro/internal/simgraph"
)

// DetectSQL executes the same three-step algorithm as DetectParallel,
// but expressed as relational-operator plans on the relops engine — the
// paper's Figure 4 pseudo-SQL made concrete. Per outer iteration:
//
//	neighbors  = σ[c1≠c2]( graph ⋈ member ⋈ member )        -- step 1
//	             groupby (lo,hi) sum(units), join degrees,
//	             extend gain = ΔMod, σ[gain>0]
//	choices    = groupby (c) argmax(metric, partner)          -- step 2
//	aggregate  = semi-naive min-label propagation over the    -- step 3
//	             choice relation (connected components), then
//	             member ⋈ labels to relabel vertices
//
// The result is identical, label for label, to DetectParallel — the
// property the cross-backend tests assert.
func DetectSQL(g *simgraph.IntGraph, opt Options) (*Result, error) {
	opt = opt.normalized()
	n := g.NumVertices()
	mG := g.TotalUnits()

	// Base tables: the vertex-level graph, the membership relation and
	// the vertex degree relation.
	edges := relops.MustNew(
		relops.Column{Name: "src", Type: relops.Int64},
		relops.Column{Name: "dst", Type: relops.Int64},
		relops.Column{Name: "units", Type: relops.Int64},
	)
	for v := int32(0); int(v) < n; v++ {
		for _, nb := range g.Neighbors(v) {
			if nb.To > v {
				edges.MustAppendRow(int64(v), int64(nb.To), nb.Units)
			}
		}
	}
	member := relops.MustNew(
		relops.Column{Name: "vertex", Type: relops.Int64},
		relops.Column{Name: "comm", Type: relops.Int64},
	)
	vdegT := relops.MustNew(
		relops.Column{Name: "vertex", Type: relops.Int64},
		relops.Column{Name: "deg", Type: relops.Int64},
	)
	vdeg := vertexDegrees(g)
	for v := 0; v < n; v++ {
		member.MustAppendRow(v, v)
		vdegT.MustAppendRow(v, vdeg[v])
	}

	res := &Result{}
	labels := memberLabels(member, n)
	res.Iterations = append(res.Iterations, IterStats{
		Iteration:   0,
		Communities: n,
		Modularity:  Modularity(g, labels),
	})
	if mG == 0 || n == 0 {
		res.Labels, res.NumCommunities = canonicalize(labels)
		res.Modularity = Modularity(g, res.Labels)
		return res, nil
	}

	jopt := relops.JoinOptions{Strategy: opt.SQLJoin, Workers: opt.Workers}
	prevCount := n
	for iter := 1; iter <= opt.MaxIterations; iter++ {
		start := time.Now()

		// Step 1: neighborhood creation. Join the graph with the
		// membership relation on both endpoints (the two aliases c1, c2
		// of Figure 4), keep cross-community rows.
		m1, err := renameAll(member, map[string]string{"vertex": "v1", "comm": "c1"})
		if err != nil {
			return nil, err
		}
		m2, err := renameAll(member, map[string]string{"vertex": "v2", "comm": "c2"})
		if err != nil {
			return nil, err
		}
		j1, err := relops.Join(edges, m1, "src", "v1", jopt)
		if err != nil {
			return nil, fmt.Errorf("community: sql step1 join1: %w", err)
		}
		j2, err := relops.Join(j1, m2, "dst", "v2", jopt)
		if err != nil {
			return nil, fmt.Errorf("community: sql step1 join2: %w", err)
		}
		cross := relops.Select(j2, func(r relops.Row) bool { return r.Int("c1") != r.Int("c2") })
		if cross.NumRows() == 0 {
			break
		}
		lo, err := relops.Extend(cross, "lo", relops.Int64, func(r relops.Row) any {
			return min(r.Int("c1"), r.Int("c2"))
		})
		if err != nil {
			return nil, err
		}
		lohi, err := relops.Extend(lo, "hi", relops.Int64, func(r relops.Row) any {
			return max(r.Int("c1"), r.Int("c2"))
		})
		if err != nil {
			return nil, err
		}
		pairs, err := relops.GroupBy(lohi, []string{"lo", "hi"},
			[]relops.Agg{{Kind: relops.Sum, Col: "units", As: "u"}}, opt.Workers)
		if err != nil {
			return nil, fmt.Errorf("community: sql pair aggregation: %w", err)
		}

		// Community degree sums: member ⋈ vdeg, grouped by community.
		mdeg, err := relops.Join(member, vdegT, "vertex", "vertex", jopt)
		if err != nil {
			return nil, err
		}
		cdeg, err := relops.GroupBy(mdeg, []string{"comm"},
			[]relops.Agg{{Kind: relops.Sum, Col: "deg", As: "cd"}}, opt.Workers)
		if err != nil {
			return nil, err
		}

		// Gain computation: join both degree sums, extend ΔMod, filter.
		g1, err := relops.Join(pairs, cdeg, "lo", "comm", jopt)
		if err != nil {
			return nil, err
		}
		g1, err = relops.Rename(g1, "cd", "d1")
		if err != nil {
			return nil, err
		}
		g2, err := relops.Join(g1, cdeg, "hi", "comm", jopt)
		if err != nil {
			return nil, err
		}
		g2, err = relops.Rename(g2, "cd", "d2")
		if err != nil {
			return nil, err
		}
		gains, err := relops.Extend(g2, "gain", relops.Float64, func(r relops.Row) any {
			return DeltaMod(r.Int("u"), r.Int("d1"), r.Int("d2"), mG)
		})
		if err != nil {
			return nil, err
		}
		pos := relops.Select(gains, func(r relops.Row) bool { return r.Float("gain") > 0 })
		if pos.NumRows() == 0 {
			break
		}
		withMetric, err := relops.Extend(pos, "metric", relops.Float64, func(r relops.Row) any {
			if opt.Metric == MetricEdgeWeight {
				return float64(r.Int("u"))
			}
			return r.Float("gain")
		})
		if err != nil {
			return nil, err
		}

		// Step 2: neighborhood separation — both directions of every
		// neighbor pair, argmax per community.
		dir1, err := projectRename(withMetric, []string{"lo", "hi", "metric"},
			map[string]string{"lo": "c", "hi": "partner"})
		if err != nil {
			return nil, err
		}
		dir2, err := projectRename(withMetric, []string{"hi", "lo", "metric"},
			map[string]string{"hi": "c", "lo": "partner"})
		if err != nil {
			return nil, err
		}
		cand, err := relops.Union(dir1, dir2)
		if err != nil {
			return nil, err
		}
		choices, err := relops.GroupBy(cand, []string{"c"},
			[]relops.Agg{{Kind: relops.ArgMax, Col: "metric", Arg: "partner", As: "leader"}}, opt.Workers)
		if err != nil {
			return nil, fmt.Errorf("community: sql neighborhood separation: %w", err)
		}

		// Step 3: star aggregation — each community adopts its leader's
		// label; mutual pairs merge under the smaller id.
		labelsT, err := starLabels(member, choices, jopt)
		if err != nil {
			return nil, err
		}
		nm, err := relops.Join(member, labelsT, "comm", "comm2", jopt)
		if err != nil {
			return nil, fmt.Errorf("community: sql relabel: %w", err)
		}
		nm, err = projectRename(nm, []string{"vertex", "root"}, map[string]string{"root": "comm"})
		if err != nil {
			return nil, err
		}
		member = nm

		labels = memberLabels(member, n)
		count := countDistinct(labels)
		res.Iterations = append(res.Iterations, IterStats{
			Iteration:   iter,
			Communities: count,
			Modularity:  Modularity(g, labels),
			Merges:      prevCount - count,
			Duration:    time.Since(start),
		})
		if count == prevCount {
			break
		}
		prevCount = count
	}

	res.Labels, res.NumCommunities = canonicalize(labels)
	res.Modularity = Modularity(g, res.Labels)
	return res, nil
}

// starLabels computes each community's new label under star
// aggregation, relationally: a self-join of the choice relation exposes
// every leader's own choice, so mutual pairs are detected in one pass
// and labelled with the smaller id; all other choosers adopt their
// leader's id; communities with no positive-gain neighbor keep their
// own label.
func starLabels(member, choices *relops.Table, jopt relops.JoinOptions) (*relops.Table, error) {
	// choices ⋈ choices on leader = c exposes leader2 = choice(leader).
	// The join is total: a chosen community always has a positive-gain
	// neighbor (gain is symmetric), hence its own row in choices.
	leaderSide, err := renameAll(choices, map[string]string{"c": "lc", "leader": "leader2"})
	if err != nil {
		return nil, err
	}
	j, err := relops.Join(choices, leaderSide, "leader", "lc", jopt)
	if err != nil {
		return nil, fmt.Errorf("community: sql mutual detection: %w", err)
	}
	withRoot, err := relops.Extend(j, "root", relops.Int64, func(r relops.Row) any {
		c, l := r.Int("c"), r.Int("leader")
		if r.Int("leader2") == c {
			return min(c, l) // mutual pair
		}
		return l
	})
	if err != nil {
		return nil, err
	}
	chosen, err := projectRename(withRoot, []string{"c", "root"}, map[string]string{"c": "comm"})
	if err != nil {
		return nil, err
	}

	// Communities with no choice row keep their own label.
	comms := relops.Distinct(mustProject(member, "comm"))
	isolated, err := relops.AntiJoin(comms, choices, "comm", "c")
	if err != nil {
		return nil, err
	}
	isolatedLabels, err := relops.Extend(isolated, "root", relops.Int64, func(r relops.Row) any {
		return r.Int("comm")
	})
	if err != nil {
		return nil, err
	}
	labels, err := relops.Union(chosen, isolatedLabels)
	if err != nil {
		return nil, err
	}
	// The relabel join needs a key column name distinct from member's.
	return relops.Rename(labels, "comm", "comm2")
}

// memberLabels extracts the vertex labelling from the member relation.
func memberLabels(member *relops.Table, n int) []int32 {
	labels := make([]int32, n)
	vs, err := member.Ints("vertex")
	if err != nil {
		panic(err)
	}
	cs, err := member.Ints("comm")
	if err != nil {
		panic(err)
	}
	for i := range vs {
		labels[vs[i]] = int32(cs[i])
	}
	return labels
}

// renameAll applies several renames.
func renameAll(t *relops.Table, renames map[string]string) (*relops.Table, error) {
	out := t
	var err error
	for _, old := range sortedKeys(renames) {
		out, err = relops.Rename(out, old, renames[old])
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// projectRename projects then renames; renames may be nil.
func projectRename(t *relops.Table, cols []string, renames map[string]string) (*relops.Table, error) {
	out, err := relops.Project(t, cols...)
	if err != nil {
		return nil, err
	}
	if renames != nil {
		out, err = renameAll(out, renames)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func mustProject(t *relops.Table, cols ...string) *relops.Table {
	out, err := relops.Project(t, cols...)
	if err != nil {
		panic(err)
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
