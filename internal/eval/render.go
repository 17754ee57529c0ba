package eval

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/community"
	"repro/internal/querylog"
)

// RenderTable renders rows as an aligned table, padding by runes so a
// multi-byte cell ("µs") lines up with the rest.
func RenderTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(c))
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// RenderTable1 renders the query-set summary.
func RenderTable1(sets []QuerySet) string {
	rows := make([][]string, 0, len(sets))
	for _, qs := range sets {
		rows = append(rows, []string{
			qs.Name,
			fmt.Sprint(qs.Size()),
			strings.Join(qs.Examples(5), ", "),
		})
	}
	return "Table 1: Queries used for the study\n" +
		RenderTable([]string{"Set Name", "Count", "Examples"}, rows)
}

// RenderTable8 renders the answered-rate comparison.
func RenderTable8(rows []Table8Row) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Set,
			fmt.Sprintf("%.2f", r.Baseline),
			fmt.Sprintf("%.2f", r.ESharp),
			fmt.Sprintf("%+.1f%%", 100*r.Improvement),
		})
	}
	return "Table 8: Proportion of queries with at least one expert\n" +
		RenderTable([]string{"Data set", "Baseline", "e#", "Improvement"}, out)
}

// RenderFigure5 renders the convergence trace.
func RenderFigure5(iters []community.IterStats) string {
	rows := make([][]string, 0, len(iters))
	for _, it := range iters {
		rows = append(rows, []string{
			fmt.Sprint(it.Iteration),
			fmt.Sprint(it.Communities),
			fmt.Sprintf("%.4f", it.Modularity),
			fmt.Sprint(it.Merges),
		})
	}
	return "Figure 5: Convergence of the community detection algorithm\n" +
		RenderTable([]string{"Iteration", "Communities", "Modularity", "Merges"}, rows)
}

// RenderFigure6 renders the community-size distribution.
func RenderFigure6(labels [4]string, counts [4]int) string {
	total := 0
	for _, c := range counts {
		total += c
	}
	rows := make([][]string, 0, 4)
	for i := range labels {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(counts[i]) / float64(total)
		}
		rows = append(rows, []string{
			labels[i],
			fmt.Sprint(counts[i]),
			fmt.Sprintf("%.1f%%", pct),
			strings.Repeat("#", int(pct/2)),
		})
	}
	return "Figure 6: Distribution of the community sizes\n" +
		RenderTable([]string{"Queries per community", "Count", "Share", "Bar"}, rows)
}

// RenderFigure7 renders the neighborhood report.
func RenderFigure7(rep NeighborhoodReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: Graph and communities around the term %q\n", rep.Query)
	fmt.Fprintf(&b, "community: %s\n", strings.Join(rep.Domain, ", "))
	for i, terms := range rep.Neighbors {
		fmt.Fprintf(&b, "neighbor %d (proximity %.3f): %s\n",
			i+1, rep.Weights[i], strings.Join(terms, ", "))
	}
	return b.String()
}

// RenderFigure8 renders the coverage curves.
func RenderFigure8(curves []CoverageCurve) string {
	var b strings.Builder
	b.WriteString("Figure 8: Queries (% of set) with at least n experts\n")
	for _, c := range curves {
		rows := make([][]string, 0, c.MaxN+1)
		for n := 0; n <= c.MaxN; n++ {
			rows = append(rows, []string{
				fmt.Sprint(n),
				fmt.Sprintf("%.1f", c.Baseline[n]),
				fmt.Sprintf("%.1f", c.ESharp[n]),
			})
		}
		fmt.Fprintf(&b, "set %s:\n%s", c.Set,
			RenderTable([]string{"n", "Baseline %", "e# %"}, rows))
	}
	return b.String()
}

// RenderFigure9 renders the z-score sweep.
func RenderFigure9(points []ZSweepPoint) string {
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.MinZ),
			fmt.Sprintf("%.2f", p.BaselineAvg),
			fmt.Sprintf("%.2f", p.ESharpAvg),
		})
	}
	return "Figure 9: Impact of the z-score on the number of experts (Top 250)\n" +
		RenderTable([]string{"Min z-score", "Baseline avg", "e# avg"}, rows)
}

// RenderFigure10 renders the size/quality trade-off.
func RenderFigure10(curves []ImpurityCurve) string {
	var b strings.Builder
	b.WriteString("Figure 10: Size vs. quality trade-off (impurity = share judged non-relevant)\n")
	for _, c := range curves {
		rows := make([][]string, 0, len(c.Baseline))
		for i := range c.Baseline {
			rows = append(rows, []string{
				fmt.Sprintf("%.2f", c.Baseline[i].MinZ),
				fmt.Sprintf("%.2f", c.Baseline[i].AvgExperts),
				fmt.Sprintf("%.3f", c.Baseline[i].Impurity),
				fmt.Sprintf("%.2f", c.ESharp[i].AvgExperts),
				fmt.Sprintf("%.3f", c.ESharp[i].Impurity),
			})
		}
		fmt.Fprintf(&b, "set %s:\n%s", c.Set, RenderTable(
			[]string{"Min z", "Base avg", "Base impurity", "e# avg", "e# impurity"}, rows))
	}
	return b.String()
}

// RenderExampleTable renders one of the Tables 2–7.
func RenderExampleTable(query string, rows []ExpertRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Algorithm,
			r.ScreenName,
			clip(r.Description, 48),
			fmt.Sprint(r.Verified),
			fmt.Sprint(r.Followers),
			fmt.Sprint(r.Relevant),
		})
	}
	return fmt.Sprintf("Selected experts for the query %q\n", query) +
		RenderTable([]string{"Algorithm", "Screen Name", "Description", "Verified", "Followers", "Relevant"}, out)
}

// RenderTable9 renders the resource-consumption table. A stage that
// recorded no I/O — every stage of an in-memory build, and the online
// rows — reads "-" in both byte columns, not "0 B".
func RenderTable9(rows []Table9Row) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		read, write := "-", "-"
		if r.Read != 0 || r.Write != 0 {
			read, write = querylog.FormatBytes(r.Read), querylog.FormatBytes(r.Write)
		}
		out = append(out, []string{
			r.Step,
			fmt.Sprint(r.Workers),
			r.Runtime.Round(time.Microsecond).String(),
			read,
			write,
		})
	}
	return "Table 9: Resource consumption for one iteration\n" +
		RenderTable([]string{"Step", "Workers", "Runtime", "Read", "Write"}, out)
}

// RenderGroundTruth renders the oracle recall/precision extension.
func RenderGroundTruth(rows []GroundTruthRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Set,
			fmt.Sprintf("%.3f", r.BaselineRecall),
			fmt.Sprintf("%.3f", r.ESharpRecall),
			fmt.Sprintf("%.3f", r.BaselinePrecision),
			fmt.Sprintf("%.3f", r.ESharpPrecision),
		})
	}
	return "Ground truth (oracle) recall and precision — beyond the paper\n" +
		RenderTable([]string{"Data set", "Base recall", "e# recall", "Base precision", "e# precision"}, out)
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
