// Command experiments regenerates every table and figure of the paper's
// evaluation section (Tables 1–9, Figures 5–10) on the synthetic world,
// printing paper-style text renderings. It is the program behind
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-scale tiny|small|default] [-run all|table1|tables2to7|
//	             table8|table9|fig5|fig6|fig7|fig8|fig9|fig10|oracle]
//	             [-seed N] [-sql]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/eval"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// run builds the pipeline the flags in args describe and prints the
// selected experiments to out; progress goes to standard error.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	scale := fs.String("scale", "small", "world scale: tiny, small or default")
	which := fs.String("run", "all", "experiment to run (all, table1, tables2to7, table8, table9, fig5..fig10, oracle)")
	seed := fs.Uint64("seed", 1, "world seed")
	useSQL := fs.Bool("sql", false, "run clustering on the relational engine")
	fs.Parse(args)

	cfg, setSizes := configFor(*scale)
	cfg.World.Seed = *seed
	cfg.Offline.UseSQLBackend = *useSQL

	start := time.Now()
	fmt.Fprintf(os.Stderr, "building pipeline (scale=%s, sql=%v)...\n", *scale, *useSQL)
	p, err := core.BuildPipeline(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pipeline ready in %v: %d queries, %d graph edges, %d domains, %d tweets\n",
		time.Since(start).Round(time.Millisecond),
		p.Log.NumQueries(), p.Graph.NumEdges(), p.Collection.NumDomains(), p.Corpus.NumTweets())

	sets := eval.BuildQuerySets(p.World, p.Log, setSizes)

	want := func(name string) bool { return *which == "all" || *which == name }
	section := func(s string) {
		fmt.Fprintln(out)
		fmt.Fprintln(out, strings.Repeat("=", 72))
		fmt.Fprintln(out, s)
		fmt.Fprintln(out, strings.Repeat("=", 72))
	}

	if want("table1") {
		section("TABLE 1")
		fmt.Fprint(out, eval.RenderTable1(sets))
	}
	if want("fig5") {
		section("FIGURE 5")
		fmt.Fprint(out, eval.RenderFigure5(eval.Figure5(p.Clustering)))
	}
	if want("fig6") {
		section("FIGURE 6")
		labels, counts := eval.Figure6(p.Clustering)
		fmt.Fprint(out, eval.RenderFigure6(labels, counts))
	}
	if want("fig7") {
		section("FIGURE 7")
		rep, err := eval.RunFigure7(p.Detector, "49ers", 3)
		if err != nil {
			fmt.Fprintln(out, "figure 7 unavailable:", err)
		} else {
			fmt.Fprint(out, eval.RenderFigure7(rep))
		}
	}
	if want("tables2to7") {
		section("TABLES 2-7")
		for _, q := range []string{"49ers", "bluetooth speakers", "dow futures", "diabetes", "world war i", "sarah palin"} {
			fmt.Fprint(out, eval.RenderExampleTable(q, eval.RunExampleTable(p.Detector, p.World, q, 3)))
			fmt.Fprintln(out)
		}
	}
	if want("table8") {
		section("TABLE 8")
		fmt.Fprint(out, eval.RenderTable8(eval.RunTable8(p.Detector, sets)))
	}
	if want("fig8") {
		section("FIGURE 8")
		fmt.Fprint(out, eval.RenderFigure8(eval.RunFigure8(p.Detector, sets, 14)))
	}
	if want("fig9") {
		section("FIGURE 9")
		top := sets[len(sets)-1]
		fmt.Fprint(out, eval.RenderFigure9(eval.RunFigure9(p, top,
			[]float64{0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0})))
	}
	if want("fig10") {
		section("FIGURE 10")
		study := crowd.NewStudy(p.World, crowd.DefaultConfig())
		fmt.Fprint(out, eval.RenderFigure10(eval.RunFigure10(p, study, sets,
			[]float64{0, 0.5, 1.0, 1.5, 2.0}, 50)))
	}
	if want("table9") {
		section("TABLE 9")
		samples := []string{"49ers", "diabetes", "dow futures", "nfl", "xbox"}
		fmt.Fprint(out, eval.RenderTable9(eval.RunTable9(p, samples)))
	}
	if want("oracle") {
		section("ORACLE RECALL/PRECISION (beyond the paper)")
		fmt.Fprint(out, eval.RenderGroundTruth(eval.RunGroundTruth(p.Detector, p.World, sets)))
	}

	fmt.Fprintf(os.Stderr, "\ntotal runtime %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// configFor maps a scale name to pipeline configuration and Table 1
// set sizes.
func configFor(scale string) (core.PipelineConfig, eval.SetSizes) {
	switch scale {
	case "tiny":
		cfg := core.TinyPipelineConfig()
		return cfg, eval.SetSizes{PerCategory: 25, Top: 60}
	case "default":
		return core.DefaultPipelineConfig(), eval.DefaultSetSizes()
	default: // "small": default world, lighter log for fast runs
		cfg := core.DefaultPipelineConfig()
		cfg.Log.Events = 600_000
		cfg.MinClicks = 10
		return cfg, eval.SetSizes{PerCategory: 100, Top: 250}
	}
}
