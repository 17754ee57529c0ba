// Command esharp is the one program of the paper pipeline: it builds
// the offline artifacts from a synthetic world, answers expert queries
// with both e# and the Pal & Counts baseline, and regenerates every
// table and figure of the paper's evaluation section.
//
// Subcommands:
//
//	esharp build  -shards DIR [-scale tiny|small|default] [-out FILE]
//	    generate the sharded click log, run the offline stage, and
//	    optionally write the serving artifact (core.Artifact): the
//	    format cmd/gateway boots from.
//	esharp query  -q "49ers" [-scale ...] [-expand N] [-z MIN]
//	    run one query through both algorithms and print the results.
//	esharp expand -q "49ers" [-scale ...]
//	    show the expansion terms and the neighboring domains.
//	esharp stats  [-scale ...]
//	    print pipeline statistics (Table 9 style).
//	esharp experiments [-scale ...] [-run all|table1|tables2to7|table8|
//	                   table9|fig5|fig6|fig7|fig8|fig9|fig10|oracle]
//	                   [-seed N] [-sql]
//	    print paper-style renderings of Tables 1–9 and Figures 5–10.
//
// -scale defaults to small; an unknown -scale or -run is an error that
// names the valid values.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/eval"
	"repro/internal/expertise"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, errUsage) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "esharp %v\n", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("usage: esharp <build|query|expand|stats|experiments> [flags]")

// run dispatches args — a subcommand name and its flags — and prints
// the subcommand's report to out.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return errUsage
	}
	var sub func([]string, io.Writer) error
	switch args[0] {
	case "build":
		sub = runBuild
	case "query":
		sub = runQuery
	case "expand":
		sub = runExpand
	case "stats":
		sub = runStats
	case "experiments":
		sub = runExperiments
	default:
		return errUsage
	}
	if err := sub(args[1:], out); err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	return nil
}

// scaleConfig maps a -scale value to the pipeline configuration and
// the Table 1 query-set sizes.
func scaleConfig(scale string) (core.PipelineConfig, eval.SetSizes, error) {
	switch scale {
	case "tiny":
		return core.TinyPipelineConfig(), eval.SetSizes{PerCategory: 25, Top: 60}, nil
	case "small": // the default world, a lighter log for fast runs
		cfg := core.DefaultPipelineConfig()
		cfg.Log.Events = 600_000
		cfg.MinClicks = 10
		return cfg, eval.SetSizes{PerCategory: 100, Top: 250}, nil
	case "default":
		return core.DefaultPipelineConfig(), eval.DefaultSetSizes(), nil
	}
	return core.PipelineConfig{}, eval.SetSizes{}, fmt.Errorf("unknown -scale %q (want tiny, small or default)", scale)
}

// flags is a subcommand's flag set with the -scale flag every
// subcommand takes.
type flags struct {
	*flag.FlagSet
	scale *string
}

func newFlags(name string) flags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	return flags{fs, fs.String("scale", "small", "world scale: tiny, small or default")}
}

// parse reads args and returns what the -scale flag names.
func (f flags) parse(args []string) (core.PipelineConfig, eval.SetSizes, error) {
	if err := f.Parse(args); err != nil {
		return core.PipelineConfig{}, eval.SetSizes{}, err
	}
	return scaleConfig(*f.scale)
}

func runBuild(args []string, out io.Writer) error {
	fs := newFlags("build")
	shards := fs.String("shards", "", "directory for the sharded click log (empty = in-memory)")
	save := fs.String("out", "", "write the serving artifact (domain collection + per-user base post counts) to this file")
	sql := fs.Bool("sql", false, "cluster on the relational engine")
	cfg, _, err := fs.parse(args)
	if err != nil {
		return err
	}

	cfg.ShardDir = *shards
	cfg.Offline.UseSQLBackend = *sql
	start := time.Now()
	p, err := core.BuildPipeline(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "built in %v\n", time.Since(start).Round(time.Millisecond))
	for _, s := range p.Stages {
		fmt.Fprintln(out, " ", s)
	}
	fmt.Fprintf(out, "log: %d queries; graph: %d vertices / %d edges; domains: %d; tweets: %d\n",
		p.Log.NumQueries(), p.Graph.NumVertices(), p.Graph.NumEdges(),
		p.Collection.NumDomains(), p.Corpus.NumTweets())
	if *save != "" {
		var buf bytes.Buffer
		if err := p.Artifact().Encode(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(*save, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "serving artifact saved to %s (%d bytes)\n", *save, buf.Len())
	}
	return nil
}

func runQuery(args []string, out io.Writer) error {
	fs := newFlags("query")
	q := fs.String("q", "49ers", "query")
	expand := fs.Int("expand", 10, "max expansion terms")
	minZ := fs.Float64("z", 0, "minimum aggregate z-score")
	topK := fs.Int("k", 10, "results to print per algorithm")
	cfg, _, err := fs.parse(args)
	if err != nil {
		return err
	}

	cfg.Online.MaxExpansionTerms = *expand
	cfg.Online.Expertise.MinZScore = *minZ
	p, err := core.BuildPipeline(cfg)
	if err != nil {
		return err
	}

	printResults := func(name string, results []expertise.Expert) {
		fmt.Fprintf(out, "%s (%d experts):\n", name, len(results))
		for i, e := range results {
			if i == *topK {
				break
			}
			u := p.World.User(e.User)
			fmt.Fprintf(out, "  %2d. @%-24s z=%+.2f  verified=%-5v followers=%-8d %s\n",
				i+1, u.ScreenName, e.Score, u.Verified, u.Followers, u.Description)
		}
	}
	printResults("baseline", p.Detector.SearchBaseline(*q))
	results, trace := p.Detector.Search(*q)
	fmt.Fprintf(out, "\nexpansion: %s\n", strings.Join(trace.Expansion, ", "))
	fmt.Fprintf(out, "matched tweets: %d (expand %v, search %v)\n\n",
		trace.MatchedTweets, trace.ExpandDuration.Round(time.Microsecond),
		trace.SearchDuration.Round(time.Microsecond))
	printResults("e#", results)
	return nil
}

func runExpand(args []string, out io.Writer) error {
	fs := newFlags("expand")
	q := fs.String("q", "49ers", "query")
	cfg, _, err := fs.parse(args)
	if err != nil {
		return err
	}

	p, err := core.BuildPipeline(cfg)
	if err != nil {
		return err
	}
	rep, err := eval.RunFigure7(p.Detector, *q, 3)
	if err != nil {
		return err
	}
	fmt.Fprint(out, eval.RenderFigure7(rep))
	return nil
}

func runStats(args []string, out io.Writer) error {
	cfg, _, err := newFlags("stats").parse(args)
	if err != nil {
		return err
	}

	p, err := core.BuildPipeline(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(out, eval.RenderTable9(eval.RunTable9(p, []string{"49ers", "diabetes", "nfl"})))
	fmt.Fprint(out, eval.RenderFigure5(eval.Figure5(p.Clustering)))
	labels, counts := eval.Figure6(p.Clustering)
	fmt.Fprint(out, eval.RenderFigure6(labels, counts))
	return nil
}

// runExperiments builds the pipeline the flags describe and prints the
// selected experiments to out, in the order listed; progress goes to
// standard error.
func runExperiments(args []string, out io.Writer) error {
	var (
		p    *core.Pipeline
		sets []eval.QuerySet
	)
	experiments := []struct {
		name, title string
		print       func()
	}{
		{"table1", "TABLE 1", func() { fmt.Fprint(out, eval.RenderTable1(sets)) }},
		{"fig5", "FIGURE 5", func() { fmt.Fprint(out, eval.RenderFigure5(eval.Figure5(p.Clustering))) }},
		{"fig6", "FIGURE 6", func() { fmt.Fprint(out, eval.RenderFigure6(eval.Figure6(p.Clustering))) }},
		{"fig7", "FIGURE 7", func() {
			if rep, err := eval.RunFigure7(p.Detector, "49ers", 3); err != nil {
				fmt.Fprintln(out, "figure 7 unavailable:", err)
			} else {
				fmt.Fprint(out, eval.RenderFigure7(rep))
			}
		}},
		{"tables2to7", "TABLES 2-7", func() {
			for _, q := range []string{"49ers", "bluetooth speakers", "dow futures", "diabetes", "world war i", "sarah palin"} {
				fmt.Fprintln(out, eval.RenderExampleTable(q, eval.RunExampleTable(p.Detector, p.World, q, 3)))
			}
		}},
		{"table8", "TABLE 8", func() { fmt.Fprint(out, eval.RenderTable8(eval.RunTable8(p.Detector, sets))) }},
		{"fig8", "FIGURE 8", func() { fmt.Fprint(out, eval.RenderFigure8(eval.RunFigure8(p.Detector, sets, 14))) }},
		{"fig9", "FIGURE 9", func() {
			fmt.Fprint(out, eval.RenderFigure9(eval.RunFigure9(p, sets[len(sets)-1],
				[]float64{0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0})))
		}},
		{"fig10", "FIGURE 10", func() {
			fmt.Fprint(out, eval.RenderFigure10(eval.RunFigure10(p, crowd.NewStudy(p.World, crowd.DefaultConfig()), sets,
				[]float64{0, 0.5, 1.0, 1.5, 2.0}, 50)))
		}},
		{"table9", "TABLE 9", func() {
			fmt.Fprint(out, eval.RenderTable9(eval.RunTable9(p, []string{"49ers", "diabetes", "dow futures", "nfl", "xbox"})))
		}},
		{"oracle", "ORACLE RECALL/PRECISION (beyond the paper)", func() {
			fmt.Fprint(out, eval.RenderGroundTruth(eval.RunGroundTruth(p.Detector, p.World, sets)))
		}},
	}
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	fs := newFlags("experiments")
	which := fs.String("run", "all", "experiment to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "world seed")
	useSQL := fs.Bool("sql", false, "run clustering on the relational engine")
	cfg, setSizes, err := fs.parse(args)
	if err != nil {
		return err
	}
	if !slices.Contains(names, *which) {
		return fmt.Errorf("unknown -run %q (want %s)", *which, strings.Join(names, ", "))
	}
	cfg.World.Seed = *seed
	cfg.Offline.UseSQLBackend = *useSQL

	start := time.Now()
	fmt.Fprintf(os.Stderr, "building pipeline (scale=%s, sql=%v)...\n", *fs.scale, *useSQL)
	if p, err = core.BuildPipeline(cfg); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pipeline ready in %v: %d queries, %d graph edges, %d domains, %d tweets\n",
		time.Since(start).Round(time.Millisecond),
		p.Log.NumQueries(), p.Graph.NumEdges(), p.Collection.NumDomains(), p.Corpus.NumTweets())
	sets = eval.BuildQuerySets(p.World, p.Log, setSizes)

	for _, e := range experiments {
		if *which == "all" || *which == e.name {
			fmt.Fprintf(out, "\n%s\n%s\n%[1]s\n", strings.Repeat("=", 72), e.title)
			e.print()
		}
	}
	fmt.Fprintf(os.Stderr, "\ntotal runtime %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
