// Command esharp is the interactive face of the pipeline: it builds the
// offline artifacts from a synthetic world and answers expert queries
// with both e# and the Pal & Counts baseline.
//
// Subcommands:
//
//	esharp build  -shards DIR [-scale tiny|small|default] [-out FILE]
//	    generate the sharded click log, run the offline stage, and
//	    optionally persist the domain collection.
//	esharp query  -q "49ers" [-scale ...] [-expand N] [-z MIN]
//	    run one query through both algorithms and print the results.
//	esharp expand -q "49ers" [-scale ...]
//	    show the expansion terms and the neighboring domains.
//	esharp stats  [-scale ...]
//	    print pipeline statistics (Table 9 style).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
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

var errUsage = errors.New("usage: esharp <build|query|expand|stats> [flags]")

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
	default:
		return errUsage
	}
	if err := sub(args[1:], out); err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	return nil
}

func scaleConfig(scale string) core.PipelineConfig {
	switch scale {
	case "tiny":
		return core.TinyPipelineConfig()
	case "default":
		return core.DefaultPipelineConfig()
	default:
		cfg := core.DefaultPipelineConfig()
		cfg.Log.Events = 600_000
		cfg.MinClicks = 10
		return cfg
	}
}

func runBuild(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	scale := fs.String("scale", "small", "world scale")
	shards := fs.String("shards", "", "directory for the sharded click log (empty = in-memory)")
	save := fs.String("out", "", "persist the domain collection to this file")
	sql := fs.Bool("sql", false, "cluster on the relational engine")
	fs.Parse(args)

	cfg := scaleConfig(*scale)
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
		n, err := p.Collection.Save(*save)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "collection saved to %s (%d bytes)\n", *save, n)
	}
	return nil
}

func runQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	scale := fs.String("scale", "small", "world scale")
	q := fs.String("q", "49ers", "query")
	expand := fs.Int("expand", 10, "max expansion terms")
	minZ := fs.Float64("z", 0, "minimum aggregate z-score")
	topK := fs.Int("k", 10, "results to print per algorithm")
	fs.Parse(args)

	cfg := scaleConfig(*scale)
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
	fs := flag.NewFlagSet("expand", flag.ExitOnError)
	scale := fs.String("scale", "small", "world scale")
	q := fs.String("q", "49ers", "query")
	fs.Parse(args)

	p, err := core.BuildPipeline(scaleConfig(*scale))
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
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	scale := fs.String("scale", "small", "world scale")
	fs.Parse(args)

	p, err := core.BuildPipeline(scaleConfig(*scale))
	if err != nil {
		return err
	}
	fmt.Fprint(out, eval.RenderTable9(eval.RunTable9(p, []string{"49ers", "diabetes", "nfl"})))
	fmt.Fprint(out, eval.RenderFigure5(eval.Figure5(p.Clustering)))
	labels, counts := eval.Figure6(p.Clustering)
	fmt.Fprint(out, eval.RenderFigure6(labels, counts))
	return nil
}
