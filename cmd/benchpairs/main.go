// Command benchpairs summarises paired benchmark runs. Given two
// directories of bench/ run outputs whose files pair up by name —
// parent/<workload>-<seed>.txt and change/<workload>-<seed>.txt, as
// scripts/pairs.sh (make pairs) writes them — it prints, per workload
// and metric, the parent's median and interquartile range, the
// change's median, the median of the per-pair change/parent ratios and
// in how many pairs the change is lower. Quartiles are Python's
// statistics.quantiles(n=4), as bench/'s -compare computes spreads.
//
//	go run ./cmd/benchpairs [-metrics regexp] parent/ change/
//
// A metric is read from the run's text lines ("metric <kind> <name>
// <value> <unit>"), and at full precision from its final JSON line
// where that carries it; -metrics picks the rows by name (default: the
// four gated end-to-end metrics). A run that was not correct or failed
// an operation is named on stderr, and the exit status is then 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// run is one saved benchmark output.
type run struct {
	workload string
	ok       bool
	metrics  map[string]float64
}

func main() {
	pick := flag.String("metrics", `^(setup_s|allocs_per_query|alloc_kb_per_query|rss_peak_mb)$`, "regexp of the metric names to print")
	flag.Parse()
	re, err := regexp.Compile(*pick)
	if flag.NArg() != 2 || err != nil {
		fmt.Fprintln(os.Stderr, "usage: benchpairs [-metrics regexp] parent/ change/", err)
		os.Exit(2)
	}
	os.Exit(summarise(os.Stdout, flag.Arg(0), flag.Arg(1), re))
}

// summarise writes the table of the paired runs in parentDir and
// changeDir to w and returns the exit status.
func summarise(w io.Writer, parentDir, changeDir string, re *regexp.Regexp) int {
	files, _ := filepath.Glob(filepath.Join(parentDir, "*.txt"))
	type key struct{ workload, metric string }
	pairs := map[key][][2]float64{}
	status := 0
	for _, f := range files {
		p, perr := readRun(f)
		c, cerr := readRun(filepath.Join(changeDir, filepath.Base(f)))
		if perr != nil || cerr != nil {
			fmt.Fprintln(os.Stderr, "benchpairs:", f, perr, cerr)
			status = 1
			continue
		}
		if !p.ok || !c.ok {
			fmt.Fprintf(os.Stderr, "benchpairs: %s: not correct or failed operations (parent %v, change %v)\n", filepath.Base(f), p.ok, c.ok)
			status = 1
		}
		for name, pv := range p.metrics {
			if cv, ok := c.metrics[name]; ok && re.MatchString(name) {
				k := key{p.workload, name}
				pairs[k] = append(pairs[k], [2]float64{pv, cv})
			}
		}
	}
	if len(pairs) == 0 {
		fmt.Fprintln(os.Stderr, "benchpairs: no paired runs in", parentDir, "and", changeDir)
		return 1
	}
	keys := make([]key, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-13s %-32s %5s %12s %25s %12s %8s %6s\n", "workload", "metric", "pairs", "parent med", "parent [q1, q3]", "change med", "ratio", "lower")
	for _, k := range keys {
		ps := pairs[k]
		var par, chg, ratio []float64
		lower := 0
		for _, p := range ps {
			par, chg = append(par, p[0]), append(chg, p[1])
			if p[0] != 0 {
				ratio = append(ratio, p[1]/p[0])
			}
			if p[1] < p[0] {
				lower++
			}
		}
		q1, q3 := quartiles(par)
		r := "-" // the parent read 0 in every pair
		if len(ratio) > 0 {
			r = fmt.Sprintf("%.4f", median(ratio))
		}
		fmt.Fprintf(w, "%-13s %-32s %5d %12.5g %25s %12.5g %8s %3d/%-2d\n", k.workload, k.metric, len(ps), median(par),
			fmt.Sprintf("[%.5g, %.5g]", q1, q3), median(chg), r, lower, len(ps))
	}
	return status
}

// readRun parses one run output: its "# workload" header, its metric
// lines and its final JSON line.
func readRun(path string) (run, error) {
	r := run{metrics: map[string]float64{}}
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var last string
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "# workload "); ok {
			r.workload = strings.TrimSpace(name)
		}
		if fs := strings.Fields(line); len(fs) >= 5 && fs[0] == "metric" {
			if v, err := strconv.ParseFloat(fs[3], 64); err == nil {
				r.metrics[fs[2]] = v
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var final struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &final); err != nil || r.workload == "" {
		return r, fmt.Errorf("%s: no workload header or result line", path)
	}
	r.ok = final.Correct && final.Failed == 0
	for name, v := range final.Metrics {
		r.metrics[name] = v.Value
	}
	return r, sc.Err()
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does ("exclusive"); zeros for fewer
// than two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
