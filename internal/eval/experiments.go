package eval

import (
	"fmt"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/expertise"
	"repro/internal/world"
)

// Table8Row is one row of Table 8: the proportion of queries answered
// (at least one expert found) by each algorithm, with the relative
// improvement.
type Table8Row struct {
	Set         string
	Queries     int
	Baseline    float64
	ESharp      float64
	Improvement float64 // relative, e.g. 0.10 for +10%
}

// RunTable8 measures answered-rate per query set.
func RunTable8(d *core.Detector, sets []QuerySet) []Table8Row {
	rows := make([]Table8Row, 0, len(sets))
	for _, qs := range sets {
		var base, esharp int
		for _, q := range qs.Queries {
			if len(d.SearchBaseline(q)) > 0 {
				base++
			}
			if r, _ := d.Search(q); len(r) > 0 {
				esharp++
			}
		}
		n := float64(qs.Size())
		row := Table8Row{
			Set:      qs.Name,
			Queries:  qs.Size(),
			Baseline: float64(base) / n,
			ESharp:   float64(esharp) / n,
		}
		if base > 0 {
			row.Improvement = float64(esharp-base) / float64(base)
		}
		rows = append(rows, row)
	}
	return rows
}

// CoverageCurve is one panel of Figure 8: for n = 0..MaxN, the
// percentage of the set's queries for which each algorithm returned at
// least n experts.
type CoverageCurve struct {
	Set      string
	MaxN     int
	Baseline []float64 // index n -> % of queries with >= n experts
	ESharp   []float64
}

// RunFigure8 computes the coverage curves (the paper plots n up to 14).
func RunFigure8(d *core.Detector, sets []QuerySet, maxN int) []CoverageCurve {
	if maxN <= 0 {
		maxN = 14
	}
	out := make([]CoverageCurve, 0, len(sets))
	for _, qs := range sets {
		c := CoverageCurve{
			Set:      qs.Name,
			MaxN:     maxN,
			Baseline: make([]float64, maxN+1),
			ESharp:   make([]float64, maxN+1),
		}
		for _, q := range qs.Queries {
			nb := len(d.SearchBaseline(q))
			re, _ := d.Search(q)
			ne := len(re)
			for n := 0; n <= maxN; n++ {
				if nb >= n {
					c.Baseline[n]++
				}
				if ne >= n {
					c.ESharp[n]++
				}
			}
		}
		total := float64(qs.Size())
		for n := 0; n <= maxN; n++ {
			c.Baseline[n] = 100 * c.Baseline[n] / total
			c.ESharp[n] = 100 * c.ESharp[n] / total
		}
		out = append(out, c)
	}
	return out
}

// ZSweepPoint is one x-position of Figure 9: the average number of
// experts returned per query at a given minimum z-score.
type ZSweepPoint struct {
	MinZ        float64
	BaselineAvg float64
	ESharpAvg   float64
}

// RunFigure9 sweeps the z-score threshold on one query set (the paper
// uses Top 250). Detectors are rebuilt per threshold over the same
// corpus and collection.
func RunFigure9(p *core.Pipeline, qs QuerySet, thresholds []float64) []ZSweepPoint {
	out := make([]ZSweepPoint, 0, len(thresholds))
	for _, z := range thresholds {
		cfg := p.Cfg.Online
		cfg.Expertise.MinZScore = z
		det := core.NewDetector(p.Collection, p.Corpus, cfg)
		var sumB, sumE float64
		for _, q := range qs.Queries {
			sumB += float64(len(det.SearchBaseline(q)))
			re, _ := det.Search(q)
			sumE += float64(len(re))
		}
		n := float64(qs.Size())
		out = append(out, ZSweepPoint{MinZ: z, BaselineAvg: sumB / n, ESharpAvg: sumE / n})
	}
	return out
}

// ImpurityPoint is one point of Figure 10 for one algorithm: the
// size/quality trade-off at a given threshold.
type ImpurityPoint struct {
	MinZ       float64
	AvgExperts float64
	Impurity   float64
	// TruthImpurity is the oracle impurity (not available to the paper).
	TruthImpurity float64
}

// ImpurityCurve is one panel of Figure 10.
type ImpurityCurve struct {
	Set      string
	Baseline []ImpurityPoint
	ESharp   []ImpurityPoint
}

// RunFigure10 sweeps the threshold and, at every point, judges all
// returned experts with the simulated crowd, reproducing the size
// versus impurity trade-off. maxQueries caps per-set work (0 = all).
func RunFigure10(p *core.Pipeline, study *crowd.Study, sets []QuerySet,
	thresholds []float64, maxQueries int) []ImpurityCurve {

	out := make([]ImpurityCurve, 0, len(sets))
	for _, qs := range sets {
		queries, topics := qs.Queries, qs.Topics
		if maxQueries > 0 && len(queries) > maxQueries {
			queries, topics = queries[:maxQueries], topics[:maxQueries]
		}
		curve := ImpurityCurve{Set: qs.Name}
		for _, z := range thresholds {
			cfg := p.Cfg.Online
			cfg.Expertise.MinZScore = z
			det := core.NewDetector(p.Collection, p.Corpus, cfg)

			judgeAll := func(search func(string) []expertise.Expert) ImpurityPoint {
				var experts, bad, truthBad int
				for qi, q := range queries {
					results := search(q)
					experts += len(results)
					if len(results) == 0 {
						continue
					}
					users := make([]world.UserID, len(results))
					for i, e := range results {
						users[i] = e.User
					}
					for _, j := range study.JudgeCandidates(topics[qi], users) {
						if !j.Relevant {
							bad++
						}
						if !j.Truth {
							truthBad++
						}
					}
				}
				pt := ImpurityPoint{MinZ: z}
				if len(queries) > 0 {
					pt.AvgExperts = float64(experts) / float64(len(queries))
				}
				if experts > 0 {
					pt.Impurity = float64(bad) / float64(experts)
					pt.TruthImpurity = float64(truthBad) / float64(experts)
				}
				return pt
			}

			curve.Baseline = append(curve.Baseline, judgeAll(det.SearchBaseline))
			curve.ESharp = append(curve.ESharp, judgeAll(func(q string) []expertise.Expert {
				r, _ := det.Search(q)
				return r
			}))
		}
		out = append(out, curve)
	}
	return out
}

// Figure5 returns the convergence trace (communities per iteration).
func Figure5(res *community.Result) []community.IterStats {
	return res.Iterations
}

// Figure6 returns the community size histogram with the paper's bucket
// labels.
func Figure6(res *community.Result) (labels [4]string, counts [4]int) {
	labels = [4]string{"1", "2 to 10", "10 to 50", "More than 50"}
	counts = res.SizeHistogram()
	return labels, counts
}

// NeighborhoodReport is the Figure 7 reproduction: the community of a
// focus term plus its closest communities.
type NeighborhoodReport struct {
	Query     string
	Domain    []string
	Neighbors [][]string // up to k nearby domains' terms
	Weights   []float64  // proximity of each neighbor
}

// RunFigure7 renders the communities around a term (default: 49ers).
func RunFigure7(d *core.Detector, query string, k int) (NeighborhoodReport, error) {
	rep := NeighborhoodReport{Query: query}
	dom, ok := d.Collection().Lookup(query)
	if !ok {
		return rep, fmt.Errorf("eval: %q matches no domain", query)
	}
	rep.Domain = dom.Terms
	for _, link := range d.Collection().Closest(dom.ID, k) {
		rep.Neighbors = append(rep.Neighbors, d.Collection().Domain(link.ID).Terms)
		rep.Weights = append(rep.Weights, link.Weight)
	}
	return rep, nil
}

// ExpertRow is one listed expert for the Tables 2–7 reproduction.
type ExpertRow struct {
	Algorithm   string
	ScreenName  string
	Description string
	Verified    bool
	Followers   int
	Score       float64
	// Relevant is the ground-truth relevance (the paper's tables carry
	// no such column; we can afford one).
	Relevant bool
}

// RunExampleTable reproduces one of Tables 2–7: the top-k experts from
// each algorithm for a single query.
func RunExampleTable(d *core.Detector, w *world.World, query string, k int) []ExpertRow {
	topic, hasTopic := w.KeywordOwner(query)
	rows := []ExpertRow{}
	add := func(algo string, experts []expertise.Expert) {
		for i, e := range experts {
			if i == k {
				break
			}
			u := w.User(e.User)
			row := ExpertRow{
				Algorithm:   algo,
				ScreenName:  u.ScreenName,
				Description: u.Description,
				Verified:    u.Verified,
				Followers:   u.Followers,
				Score:       e.Score,
			}
			if hasTopic {
				row.Relevant = w.IsRelevantExpert(e.User, topic)
			}
			rows = append(rows, row)
		}
	}
	add("baseline", d.SearchBaseline(query))
	esharp, _ := d.Search(query)
	add("e#", esharp)
	return rows
}

// Table9Row is one resource-consumption row.
type Table9Row struct {
	Step    string
	Workers int
	Runtime time.Duration
	Read    int64
	Write   int64
}

// RunTable9 assembles the resource table from the pipeline's recorded
// stage stats plus measured online latencies averaged over sample
// queries.
func RunTable9(p *core.Pipeline, sampleQueries []string) []Table9Row {
	rows := make([]Table9Row, 0, len(p.Stages)+2)
	for _, s := range p.Stages {
		rows = append(rows, Table9Row{
			Step:    s.Stage,
			Workers: s.Workers,
			Runtime: s.Duration,
			Read:    s.BytesRead,
			Write:   s.BytesWritten,
		})
	}
	if len(sampleQueries) > 0 {
		var expand, detect time.Duration
		for _, q := range sampleQueries {
			_, trace := p.Detector.Search(q)
			expand += trace.ExpandDuration
			detect += trace.SearchDuration
		}
		n := time.Duration(len(sampleQueries))
		rows = append(rows,
			Table9Row{Step: "expansion", Workers: 1, Runtime: expand / n},
			Table9Row{Step: "detection", Workers: 1, Runtime: detect / n},
		)
	}
	return rows
}

// GroundTruthRow extends the paper: with a synthetic world the true
// expert sets are known, so real recall and precision are measurable.
type GroundTruthRow struct {
	Set               string
	BaselineRecall    float64
	ESharpRecall      float64
	BaselinePrecision float64
	ESharpPrecision   float64
}

// RunGroundTruth measures oracle recall (fraction of a topic's true
// experts retrieved) and precision (fraction of retrieved accounts that
// are relevant) per set — the measurement the paper's crowdsourcing
// study approximates.
func RunGroundTruth(d *core.Detector, w *world.World, sets []QuerySet) []GroundTruthRow {
	out := make([]GroundTruthRow, 0, len(sets))
	for _, qs := range sets {
		var row GroundTruthRow
		row.Set = qs.Name
		var bRecall, eRecall, bPrec, ePrec float64
		var nRecall, nbPrec, nePrec int
		evalOne := func(topic world.TopicID, results []expertise.Expert) (recall, precision float64, ok bool) {
			truth := w.ExpertsOn(topic)
			if len(truth) == 0 {
				return 0, 0, false
			}
			truthSet := map[world.UserID]bool{}
			for _, u := range truth {
				truthSet[u] = true
			}
			hit, rel := 0, 0
			for _, e := range results {
				if truthSet[e.User] {
					hit++
				}
				if w.IsRelevantExpert(e.User, topic) {
					rel++
				}
			}
			recall = float64(hit) / float64(len(truth))
			if len(results) > 0 {
				precision = float64(rel) / float64(len(results))
			}
			return recall, precision, true
		}
		for qi, q := range qs.Queries {
			topic := qs.Topics[qi]
			rb := d.SearchBaseline(q)
			re, _ := d.Search(q)
			if r, p, ok := evalOne(topic, rb); ok {
				bRecall += r
				nRecall++
				if len(rb) > 0 {
					bPrec += p
					nbPrec++
				}
			}
			if r, p, ok := evalOne(topic, re); ok {
				eRecall += r
				if len(re) > 0 {
					ePrec += p
					nePrec++
				}
			}
		}
		if nRecall > 0 {
			row.BaselineRecall = bRecall / float64(nRecall)
			row.ESharpRecall = eRecall / float64(nRecall)
		}
		if nbPrec > 0 {
			row.BaselinePrecision = bPrec / float64(nbPrec)
		}
		if nePrec > 0 {
			row.ESharpPrecision = ePrec / float64(nePrec)
		}
		out = append(out, row)
	}
	return out
}
