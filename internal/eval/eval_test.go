package eval

import (
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/querylog"
	"repro/internal/world"
)

var (
	once    sync.Once
	pipe    *core.Pipeline
	sets    []QuerySet
	pipeErr error
)

// testPipeline builds one shared tiny pipeline plus query sets.
func testPipeline(t testing.TB) (*core.Pipeline, []QuerySet) {
	t.Helper()
	once.Do(func() {
		cfg := core.TinyPipelineConfig()
		pipe, pipeErr = core.BuildPipeline(cfg)
		if pipeErr == nil {
			sets = BuildQuerySets(pipe.World, pipe.Log, SetSizes{PerCategory: 25, Top: 60})
		}
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe, sets
}

func TestQuerySetsShape(t *testing.T) {
	_, qsets := testPipeline(t)
	if len(qsets) != 6 {
		t.Fatalf("got %d sets, want 6", len(qsets))
	}
	names := map[string]bool{}
	for _, qs := range qsets {
		names[qs.Name] = true
		if qs.Size() == 0 {
			t.Errorf("set %q empty", qs.Name)
		}
		if len(qs.Queries) != len(qs.Topics) {
			t.Errorf("set %q misaligned topics", qs.Name)
		}
	}
	for _, want := range []string{"sports", "electronics", "finance", "health", "wikipedia", "top 250"} {
		if !names[want] {
			t.Errorf("missing set %q", want)
		}
	}
}

func TestQuerySetsRespectSizes(t *testing.T) {
	p, _ := testPipeline(t)
	small := BuildQuerySets(p.World, p.Log, SetSizes{PerCategory: 5, Top: 9})
	for _, qs := range small {
		limit := 5
		if qs.Name == "top 250" {
			limit = 9
		}
		if qs.Size() > limit {
			t.Errorf("set %q has %d queries, limit %d", qs.Name, qs.Size(), limit)
		}
	}
}

func TestQuerySetsCategoriesConsistent(t *testing.T) {
	p, qsets := testPipeline(t)
	wantCat := map[string]world.Category{
		"sports": world.Sports, "electronics": world.Electronics,
		"finance": world.Finance, "health": world.Health,
		"wikipedia": world.Wikipedia,
	}
	for _, qs := range qsets {
		cat, ok := wantCat[qs.Name]
		if !ok {
			continue
		}
		for i, topic := range qs.Topics {
			if p.World.Topic(topic).Category != cat {
				t.Errorf("set %q query %q topic in wrong category", qs.Name, qs.Queries[i])
			}
		}
	}
}

func TestQuerySetsSortedByPopularity(t *testing.T) {
	p, qsets := testPipeline(t)
	for _, qs := range qsets {
		for i := 1; i < qs.Size(); i++ {
			if p.Log.Total(qs.Queries[i-1]) < p.Log.Total(qs.Queries[i]) {
				t.Errorf("set %q not sorted by clicks at %d", qs.Name, i)
				break
			}
		}
	}
}

func TestTable8ShowsImprovement(t *testing.T) {
	p, qsets := testPipeline(t)
	rows := RunTable8(p.Detector, qsets)
	if len(rows) != len(qsets) {
		t.Fatalf("got %d rows", len(rows))
	}
	improved := 0
	for _, r := range rows {
		if r.Baseline < 0 || r.Baseline > 1 || r.ESharp < 0 || r.ESharp > 1 {
			t.Errorf("set %s rates out of range: %+v", r.Set, r)
		}
		if r.ESharp < r.Baseline {
			t.Errorf("set %s: e# answered fewer queries than baseline (%v < %v)",
				r.Set, r.ESharp, r.Baseline)
		}
		if r.ESharp > r.Baseline {
			improved++
		}
	}
	if improved < 3 {
		t.Errorf("e# improved only %d/%d sets", improved, len(rows))
	}
}

func TestFigure8CurvesMonotone(t *testing.T) {
	p, qsets := testPipeline(t)
	curves := RunFigure8(p.Detector, qsets[:2], 14)
	for _, c := range curves {
		if c.Baseline[0] != 100 || c.ESharp[0] != 100 {
			t.Errorf("set %s: curve must start at 100%%", c.Set)
		}
		for n := 1; n <= c.MaxN; n++ {
			if c.Baseline[n] > c.Baseline[n-1]+1e-9 || c.ESharp[n] > c.ESharp[n-1]+1e-9 {
				t.Errorf("set %s: coverage curve not monotone at n=%d", c.Set, n)
			}
		}
		// e# dominates the baseline pointwise (query expansion can only
		// add matched tweets).
		for n := 0; n <= c.MaxN; n++ {
			if c.ESharp[n] < c.Baseline[n]-1e-9 {
				t.Errorf("set %s: e# below baseline at n=%d (%.1f < %.1f)",
					c.Set, n, c.ESharp[n], c.Baseline[n])
			}
		}
	}
}

func TestFigure9Decreasing(t *testing.T) {
	p, qsets := testPipeline(t)
	top := qsets[len(qsets)-1]
	points := RunFigure9(p, top, []float64{0, 0.5, 1, 2, 4})
	if len(points) != 5 {
		t.Fatalf("got %d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].BaselineAvg > points[i-1].BaselineAvg+1e-9 {
			t.Errorf("baseline avg increased at threshold %v", points[i].MinZ)
		}
		if points[i].ESharpAvg > points[i-1].ESharpAvg+1e-9 {
			t.Errorf("e# avg increased at threshold %v", points[i].MinZ)
		}
	}
	// At a permissive threshold e# must return more experts on average.
	if points[0].ESharpAvg <= points[0].BaselineAvg {
		t.Errorf("e# avg %v not above baseline %v at z=0",
			points[0].ESharpAvg, points[0].BaselineAvg)
	}
	// At an extreme threshold both tend to zero.
	last := points[len(points)-1]
	if last.BaselineAvg > 2 || last.ESharpAvg > 2 {
		t.Errorf("averages did not decay: %+v", last)
	}
}

func TestFigure10ImpurityComparable(t *testing.T) {
	p, qsets := testPipeline(t)
	study := crowd.NewStudy(p.World, crowd.DefaultConfig())
	curves := RunFigure10(p, study, qsets[:1], []float64{0, 1}, 10)
	if len(curves) != 1 {
		t.Fatalf("got %d curves", len(curves))
	}
	c := curves[0]
	if len(c.Baseline) != 2 || len(c.ESharp) != 2 {
		t.Fatalf("curve lengths wrong: %d/%d", len(c.Baseline), len(c.ESharp))
	}
	for i := range c.Baseline {
		for _, pt := range []ImpurityPoint{c.Baseline[i], c.ESharp[i]} {
			if pt.Impurity < 0 || pt.Impurity > 1 {
				t.Errorf("impurity out of range: %+v", pt)
			}
			if pt.AvgExperts < 0 {
				t.Errorf("negative avg experts: %+v", pt)
			}
		}
	}
	// Key claim of the paper: the e# accuracy penalty is small. Allow a
	// generous margin on the tiny world.
	if c.ESharp[0].Impurity > c.Baseline[0].Impurity+0.3 {
		t.Errorf("e# impurity %.3f far above baseline %.3f",
			c.ESharp[0].Impurity, c.Baseline[0].Impurity)
	}
}

func TestFigure7Report(t *testing.T) {
	p, _ := testPipeline(t)
	rep, err := RunFigure7(p.Detector, "49ers", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Domain) == 0 {
		t.Fatal("empty 49ers domain")
	}
	found := false
	for _, term := range rep.Domain {
		if term == "49ers" {
			found = true
		}
	}
	if !found {
		t.Error("49ers missing from own domain")
	}
	if len(rep.Neighbors) == 0 {
		t.Error("no neighboring communities")
	}
	if _, err := RunFigure7(p.Detector, "no such term zz", 3); err == nil {
		t.Error("unknown term produced a report")
	}
}

func TestExampleTables(t *testing.T) {
	p, _ := testPipeline(t)
	rows := RunExampleTable(p.Detector, p.World, "49ers", 3)
	if len(rows) == 0 {
		t.Fatal("no example rows")
	}
	algos := map[string]int{}
	for _, r := range rows {
		algos[r.Algorithm]++
		if r.ScreenName == "" {
			t.Error("row with empty screen name")
		}
	}
	if algos["baseline"] == 0 || algos["e#"] == 0 {
		t.Errorf("missing algorithm rows: %v", algos)
	}
	if algos["baseline"] > 3 || algos["e#"] > 3 {
		t.Errorf("k=3 not respected: %v", algos)
	}
}

func TestTable9IncludesOnlineSteps(t *testing.T) {
	p, _ := testPipeline(t)
	rows := RunTable9(p, []string{"49ers", "diabetes"})
	steps := map[string]bool{}
	for _, r := range rows {
		steps[r.Step] = true
	}
	for _, want := range []string{"extraction", "graph", "clustering", "expansion", "detection"} {
		if !steps[want] {
			t.Errorf("Table 9 missing step %q (have %v)", want, steps)
		}
	}
}

// TestTable9ByteColumns pins Table 9's Read and Write columns: an
// in-memory build measures no I/O, so every row reads "-" in both; a
// build whose click log goes through sharded files on disk prints the
// bytes its generate and extraction stages recorded.
func TestTable9ByteColumns(t *testing.T) {
	// ioCells returns each rendered row's last two columns by step.
	ioCells := func(out string) map[string]string {
		cells := map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(out), "\n")[3:] {
			step, rest, _ := strings.Cut(line, " ")
			f := strings.Fields(rest)
			cells[step] = strings.Join(f[2:], " ")
		}
		return cells
	}

	p, _ := testPipeline(t)
	for step, io := range ioCells(RenderTable9(RunTable9(p, []string{"49ers"}))) {
		if io != "- -" {
			t.Errorf("in-memory %s: Read and Write read %q, want \"- -\"", step, io)
		}
	}

	cfg := core.TinyPipelineConfig()
	cfg.ShardDir = t.TempDir()
	sp, err := core.BuildPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := ioCells(RenderTable9(RunTable9(sp, nil)))
	for _, s := range sp.Stages {
		if s.BytesRead == 0 && s.BytesWritten == 0 {
			continue
		}
		want := querylog.FormatBytes(s.BytesRead) + " " + querylog.FormatBytes(s.BytesWritten)
		if cells[s.Stage] != want {
			t.Errorf("-shards %s: Read and Write read %q, want %q", s.Stage, cells[s.Stage], want)
		}
	}
	for _, step := range []string{"generate", "extraction"} {
		if c := cells[step]; c == "" || strings.Contains(c, "-") {
			t.Errorf("-shards %s recorded no I/O: %q", step, c)
		}
	}
}

func TestGroundTruthRecallGain(t *testing.T) {
	p, qsets := testPipeline(t)
	rows := RunGroundTruth(p.Detector, p.World, qsets)
	gained := 0
	for _, r := range rows {
		if r.ESharpRecall > r.BaselineRecall {
			gained++
		}
		if r.BaselineRecall < 0 || r.BaselineRecall > 1 || r.ESharpRecall < 0 || r.ESharpRecall > 1 {
			t.Errorf("recall out of range: %+v", r)
		}
	}
	if gained < 3 {
		t.Errorf("e# improved oracle recall on only %d/%d sets", gained, len(rows))
	}
}

func TestRenderers(t *testing.T) {
	p, qsets := testPipeline(t)
	study := crowd.NewStudy(p.World, crowd.DefaultConfig())

	outputs := []string{
		RenderTable1(qsets),
		RenderTable8(RunTable8(p.Detector, qsets[:2])),
		RenderFigure5(Figure5(p.Clustering)),
		RenderFigure9(RunFigure9(p, qsets[len(qsets)-1], []float64{0, 1})),
		RenderTable9(RunTable9(p, []string{"49ers"})),
		RenderGroundTruth(RunGroundTruth(p.Detector, p.World, qsets[:1])),
	}
	labels, counts := Figure6(p.Clustering)
	outputs = append(outputs, RenderFigure6(labels, counts))
	if rep, err := RunFigure7(p.Detector, "49ers", 3); err == nil {
		outputs = append(outputs, RenderFigure7(rep))
	}
	outputs = append(outputs, RenderFigure8(RunFigure8(p.Detector, qsets[:1], 5)))
	outputs = append(outputs, RenderFigure10(RunFigure10(p, study, qsets[:1], []float64{0}, 5)))
	outputs = append(outputs, RenderExampleTable("49ers", RunExampleTable(p.Detector, p.World, "49ers", 3)))

	for i, out := range outputs {
		if strings.TrimSpace(out) == "" {
			t.Errorf("renderer %d produced empty output", i)
		}
		if strings.Contains(out, "%!") {
			t.Errorf("renderer %d has formatting error:\n%s", i, out)
		}
	}
}

func TestRenderTableAlignment(t *testing.T) {
	out := RenderTable([]string{"a", "long header"}, [][]string{
		{"xxxxxxxx", "y"},
		{"z", "w"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	// All rows same width.
	for _, l := range lines[1:] {
		if len(strings.TrimRight(l, " ")) > len(lines[0])+8 {
			t.Errorf("row much wider than header: %q", l)
		}
	}
}

// TestRenderTablePadsByRunes pins rune padding: a "µs" cell (µ is two
// bytes) and an "ms" cell start the next column at the same rune
// offset, as Table 9's Runtime column next to Read does.
func TestRenderTablePadsByRunes(t *testing.T) {
	out := RenderTable([]string{"Runtime", "Read"}, [][]string{
		{"12µs", "x"},
		{"12ms", "y"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	at := func(line, cell string) int {
		return utf8.RuneCountInString(line[:strings.Index(line, cell)])
	}
	if a, b := at(lines[2], "x"), at(lines[3], "y"); a != b {
		t.Fatalf("next column starts at rune %d after µs and %d after ms:\n%s", a, b, out)
	}
}

func BenchmarkTable8(b *testing.B) {
	p, qsets := testPipeline(b)
	small := qsets[:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunTable8(p.Detector, small)
	}
}

func TestRunTable9NoSampleQueries(t *testing.T) {
	p, _ := testPipeline(t)
	rows := RunTable9(p, nil)
	for _, r := range rows {
		if r.Step == "expansion" || r.Step == "detection" {
			t.Error("online rows present without sample queries")
		}
	}
	if len(rows) == 0 {
		t.Fatal("no offline rows")
	}
}

func TestEmptyQuerySetSafe(t *testing.T) {
	p, _ := testPipeline(t)
	empty := []QuerySet{{Name: "empty"}}
	rows := RunTable8(p.Detector, empty)
	if len(rows) != 1 {
		t.Fatal("no row for empty set")
	}
	curves := RunFigure8(p.Detector, empty, 5)
	if len(curves) != 1 {
		t.Fatal("no curve for empty set")
	}
}

func TestFigure9EmptyThresholds(t *testing.T) {
	p, qsets := testPipeline(t)
	if pts := RunFigure9(p, qsets[0], nil); len(pts) != 0 {
		t.Error("points from empty threshold list")
	}
}
