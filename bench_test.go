// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus ablations of the design decisions. Naming
// follows the paper: BenchmarkTable8AnsweredRate re-runs the Table 8
// experiment once per iteration, and so on. Reported custom metrics
// carry the headline numbers (improvement, modularity, ...) so
// `go test -bench . -benchmem` doubles as a results summary. Serving
// throughput is bench/'s business (BENCHMARK.json).
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domains"
	"repro/internal/eval"
	"repro/internal/expertise"
	"repro/internal/querylog"
	"repro/internal/relops"
	"repro/internal/simgraph"
	"repro/internal/world"
)

// benchState is built once and shared read-only by every benchmark.
type benchState struct {
	pipe *core.Pipeline
	sets []eval.QuerySet
	err  error
}

var (
	benchOnce sync.Once
	bench     benchState
)

func state(b *testing.B) *benchState {
	b.Helper()
	benchOnce.Do(func() {
		cfg := core.TinyPipelineConfig()
		bench.pipe, bench.err = core.BuildPipeline(cfg)
		if bench.err == nil {
			bench.sets = eval.BuildQuerySets(bench.pipe.World, bench.pipe.Log,
				eval.SetSizes{PerCategory: 25, Top: 60})
		}
	})
	if bench.err != nil {
		b.Fatal(bench.err)
	}
	return &bench
}

// --- Tables ---

func BenchmarkTable1QuerySets(b *testing.B) {
	s := state(b)
	for i := 0; i < b.N; i++ {
		sets := eval.BuildQuerySets(s.pipe.World, s.pipe.Log, eval.SetSizes{PerCategory: 25, Top: 60})
		if len(sets) != 6 {
			b.Fatal("bad set count")
		}
	}
}

func BenchmarkTables2to7Examples(b *testing.B) {
	s := state(b)
	queries := []string{"49ers", "bluetooth speakers", "dow futures", "diabetes", "world war i", "sarah palin"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			eval.RunExampleTable(s.pipe.Detector, s.pipe.World, q, 3)
		}
	}
}

func BenchmarkTable8AnsweredRate(b *testing.B) {
	s := state(b)
	var rows []eval.Table8Row
	for i := 0; i < b.N; i++ {
		rows = eval.RunTable8(s.pipe.Detector, s.sets)
	}
	if len(rows) > 0 {
		last := rows[len(rows)-1] // top 250
		b.ReportMetric(last.Baseline, "baseline-rate")
		b.ReportMetric(last.ESharp, "esharp-rate")
	}
}

func BenchmarkTable9Resources(b *testing.B) {
	s := state(b)
	samples := []string{"49ers", "diabetes", "nfl"}
	for i := 0; i < b.N; i++ {
		rows := eval.RunTable9(s.pipe, samples)
		if len(rows) == 0 {
			b.Fatal("no stats")
		}
	}
}

// --- Figures ---

func BenchmarkFigure5Convergence(b *testing.B) {
	s := state(b)
	ig := s.pipe.Graph.Discretize(20)
	var res *community.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = community.DetectParallel(ig, community.DefaultOptions())
	}
	b.ReportMetric(float64(len(res.Iterations)-1), "iterations")
	b.ReportMetric(float64(res.NumCommunities), "communities")
}

func BenchmarkFigure6SizeDistribution(b *testing.B) {
	s := state(b)
	for i := 0; i < b.N; i++ {
		h := s.pipe.Clustering.SizeHistogram()
		if h[0]+h[1]+h[2]+h[3] == 0 {
			b.Fatal("empty histogram")
		}
	}
}

func BenchmarkFigure7Neighborhood(b *testing.B) {
	s := state(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFigure7(s.pipe.Detector, "49ers", 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8Coverage(b *testing.B) {
	s := state(b)
	for i := 0; i < b.N; i++ {
		curves := eval.RunFigure8(s.pipe.Detector, s.sets, 14)
		if len(curves) != len(s.sets) {
			b.Fatal("bad curves")
		}
	}
}

func BenchmarkFigure9ZScoreSweep(b *testing.B) {
	s := state(b)
	top := s.sets[len(s.sets)-1]
	thresholds := []float64{0, 0.5, 1, 1.5, 2}
	var pts []eval.ZSweepPoint
	for i := 0; i < b.N; i++ {
		pts = eval.RunFigure9(s.pipe, top, thresholds)
	}
	if len(pts) > 0 {
		b.ReportMetric(pts[0].ESharpAvg, "esharp-avg-at-z0")
		b.ReportMetric(pts[0].BaselineAvg, "baseline-avg-at-z0")
	}
}

func BenchmarkFigure10Impurity(b *testing.B) {
	s := state(b)
	study := crowd.NewStudy(s.pipe.World, crowd.DefaultConfig())
	var curves []eval.ImpurityCurve
	for i := 0; i < b.N; i++ {
		curves = eval.RunFigure10(s.pipe, study, s.sets[:1], []float64{0, 1}, 10)
	}
	if len(curves) > 0 && len(curves[0].ESharp) > 0 {
		b.ReportMetric(curves[0].ESharp[0].Impurity, "esharp-impurity")
		b.ReportMetric(curves[0].Baseline[0].Impurity, "baseline-impurity")
	}
}

// --- Ablations (design decisions called out in DESIGN.md) ---

// BenchmarkAblationJoinStrategy compares the two physical join plans of
// Section 4.2.3 on the clustering workload's heaviest join shape.
func BenchmarkAblationJoinStrategy(b *testing.B) {
	s := state(b)
	ig := s.pipe.Graph.Discretize(20)
	for _, tc := range []struct {
		name     string
		strategy relops.JoinStrategy
	}{{"replicated", relops.ReplicatedJoin}, {"partitioned", relops.PartitionedJoin}} {
		b.Run(tc.name, func(b *testing.B) {
			opt := community.DefaultOptions()
			opt.SQLJoin = tc.strategy
			for i := 0; i < b.N; i++ {
				if _, err := community.DetectSQL(ig, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBackends compares all clustering implementations on
// the same world-derived graph.
func BenchmarkAblationBackends(b *testing.B) {
	s := state(b)
	ig := s.pipe.Graph.Discretize(20)
	opt := community.DefaultOptions()
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			community.DetectParallel(ig, opt)
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			community.DetectSequential(ig, opt)
		}
	})
	b.Run("sql", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := community.DetectSQL(ig, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMetric compares the two step-2 closeness metrics
// (prose ΔMod vs literal-SQL edge weight).
func BenchmarkAblationMetric(b *testing.B) {
	s := state(b)
	ig := s.pipe.Graph.Discretize(20)
	for _, tc := range []struct {
		name   string
		metric community.Metric
	}{{"delta-mod", community.MetricDeltaMod}, {"edge-weight", community.MetricEdgeWeight}} {
		b.Run(tc.name, func(b *testing.B) {
			opt := community.DefaultOptions()
			opt.Metric = tc.metric
			var res *community.Result
			for i := 0; i < b.N; i++ {
				res = community.DetectParallel(ig, opt)
			}
			b.ReportMetric(res.Modularity, "modularity")
			b.ReportMetric(float64(res.NumCommunities), "communities")
		})
	}
}

// BenchmarkAblationExpansionTerms sweeps the expansion budget: 0 terms
// degenerates to the baseline, larger budgets trade latency for recall.
func BenchmarkAblationExpansionTerms(b *testing.B) {
	s := state(b)
	for _, terms := range []int{1, 3, 5, 10, 20} {
		b.Run(fmt.Sprintf("terms=%d", terms), func(b *testing.B) {
			cfg := s.pipe.Cfg.Online
			cfg.MaxExpansionTerms = terms
			det := core.NewDetector(s.pipe.Collection, s.pipe.Corpus, cfg)
			var n int
			for i := 0; i < b.N; i++ {
				results, _ := det.Search("49ers schedule")
				n = len(results)
			}
			b.ReportMetric(float64(n), "experts")
		})
	}
}

// --- Micro-benchmarks of the hot paths ---

func BenchmarkOnlineSearchBaseline(b *testing.B) {
	s := state(b)
	for i := 0; i < b.N; i++ {
		s.pipe.Detector.SearchBaseline("49ers")
	}
}

func BenchmarkOnlineSearchESharp(b *testing.B) {
	s := state(b)
	for i := 0; i < b.N; i++ {
		s.pipe.Detector.Search("49ers")
	}
}

func BenchmarkOfflineGraphBuild(b *testing.B) {
	s := state(b)
	cfg := simgraph.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simgraph.Build(s.pipe.Log, cfg)
	}
}

func BenchmarkOfflineAggregation(b *testing.B) {
	w := world.Build(world.TinyConfig())
	recs := querylog.NewGenerator(w, querylog.TinyGenConfig()).GenerateRecords()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		querylog.AggregateRecords(recs, 5)
	}
}

func BenchmarkEndToEndPipeline(b *testing.B) {
	cfg := core.TinyPipelineConfig()
	cfg.Log.Events = 20_000
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildPipeline(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeeklyRefresh measures the paper's weekly offline refresh:
// decay the old log, merge a new week, rebuild graph + clustering +
// collection.
func BenchmarkWeeklyRefresh(b *testing.B) {
	cfg := core.TinyPipelineConfig()
	cfg.Log.Events = 20_000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := core.BuildPipeline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		refresh := core.RefreshConfig{Log: cfg.Log, Decay: 0.5}
		refresh.Log.Seed = uint64(1000 + i)
		b.StartTimer()
		if err := p.Refresh(refresh); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDomainStorePersistence measures the binary store round-trip
// (the paper keeps its ~100 MB collection in SQL Server).
func BenchmarkDomainStorePersistence(b *testing.B) {
	s := state(b)
	path := b.TempDir() + "/domains.bin"
	var bytes int64
	for i := 0; i < b.N; i++ {
		n, err := s.pipe.Collection.Save(path)
		if err != nil {
			b.Fatal(err)
		}
		bytes = n
		if _, err := domains.Load(path); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bytes), "store-bytes")
}

// BenchmarkAblationFeatureSet compares the paper's production feature
// set (TS/MI/RI) against the extended Pal & Counts set it simplified
// away (adding hashtag ratio, graph influence and average retweets).
func BenchmarkAblationFeatureSet(b *testing.B) {
	s := state(b)
	for _, tc := range []struct {
		name   string
		params expertise.Params
	}{{"production", expertise.DefaultParams()}, {"extended", expertise.ExtendedParams()}} {
		b.Run(tc.name, func(b *testing.B) {
			det := expertise.New(s.pipe.Corpus, tc.params)
			var n int
			for i := 0; i < b.N; i++ {
				n = len(det.Search("49ers"))
			}
			b.ReportMetric(float64(n), "experts")
		})
	}
}
