package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json -compare judges against.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is one saved run: the workload named in its header, every
// metric of its text lines, and — at full precision — those of its
// final JSON line.
type runOutput struct {
	workload string
	correct  bool
	metrics  map[string]value
}

// parseRunOutput reads what one benchmark run printed.
func parseRunOutput(text string) (runOutput, error) {
	out := runOutput{metrics: make(map[string]value)}
	var last string
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "# workload "); ok {
			out.workload = strings.TrimSpace(name)
		}
		// "metric <kind> <name> <value> <unit> …"
		if f := strings.Fields(line); len(f) >= 5 && f[0] == "metric" {
			if v, err := strconv.ParseFloat(f[3], 64); err == nil {
				out.metrics[f[2]] = value{Value: v, Unit: f[4]}
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if out.workload == "" {
		return out, fmt.Errorf("no \"# workload\" header")
	}
	var final struct {
		Correct bool             `json:"correct"`
		Metrics map[string]value `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &final); err != nil {
		return out, fmt.Errorf("last line is not the result object: %w", err)
	}
	out.correct = final.Correct
	for name, v := range final.Metrics {
		out.metrics[name] = v
	}
	return out, nil
}

// loadSet reads every run output in dir into workload → metric →
// values.
func loadSet(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("bench: no *.txt run outputs in %s", dir)
	}
	set := make(map[string]map[string][]float64)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		run, err := parseRunOutput(string(b))
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", f, err)
		}
		if !run.correct {
			return nil, fmt.Errorf("bench: %s: the run reported incorrect answers", f)
		}
		if set[run.workload] == nil {
			set[run.workload] = make(map[string][]float64)
		}
		for name, v := range run.metrics {
			set[run.workload][name] = append(set[run.workload][name], v.Value)
		}
	}
	return set, nil
}

// verdict judges one workload × end-to-end metric the way the
// acceptance driver does: each set's interquartile spread, as a share
// of its median, must stay within the bound (set-up time excepted),
// and set B's median may not be worse than set A's by more than the
// bound.
type verdict struct {
	medA, medB       float64
	spreadA, spreadB float64
	worse            float64 // share by which B's median is worse than A's (negative: better)
	pass             bool
}

func judge(a, b []float64, better string, bound float64, gateSpread bool) verdict {
	v := verdict{medA: median(a), medB: median(b)}
	spread := func(xs []float64, med float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / med
	}
	v.spreadA, v.spreadB = spread(a, v.medA), spread(b, v.medB)
	v.worse = (v.medB - v.medA) / v.medA
	if better == "higher" {
		v.worse = -v.worse
	}
	v.pass = v.worse <= bound && (!gateSpread || (v.spreadA <= bound && v.spreadB <= bound))
	return v
}

// compareSets prints, per workload × metric, both sets' medians and
// spreads, their relative difference and the verdict against the
// metric's bound. It returns 1 if any gated pairing fails.
func compareSets(dirA, dirB string) int {
	root, err := findRepoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json: %v\n", err)
		return 1
	}
	a, err := loadSet(dirA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	b, err := loadSet(dirB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return printComparison(sp, a, b)
}

func printComparison(sp spec, a, b map[string]map[string][]float64) int {
	failed := 0
	fmt.Printf("%-13s %-20s %5s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "median A", "iqr A", "median B", "iqr B", "B worse", "bound", "verdict")
	// Every workload either set ran: a gated pairing one of them lacks
	// cannot be shown to agree, so it fails.
	var names []string
	for w := range a {
		names = append(names, w)
	}
	for w := range b {
		if a[w] == nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	for _, w := range names {
		for _, m := range sp.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) < 2 || len(vb) < 2 {
				failed++
				fmt.Printf("%-13s %-20s %2d+%-2d %s  FAIL\n", w, m.Name, len(va), len(vb), "fewer than 2 runs in a set")
				continue
			}
			v := judge(va, vb, m.Better, m.Bound, m.Name != "setup_s")
			word := "pass"
			if !v.pass {
				word = "FAIL"
				failed++
			}
			fmt.Printf("%-13s %-20s %2d+%-2d %12.5g %7.2f%% %12.5g %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				w, m.Name, len(va), len(vb), v.medA, 100*v.spreadA, v.medB, 100*v.spreadB, 100*v.worse, 100*m.Bound, word)
		}
		// The whole-system timing figures are per-layer metrics without a
		// bound; their agreement is shown as evidence, not judged.
		for _, m := range []struct{ name, better string }{
			{"qps", "higher"}, {"search_p50_ms", "lower"}, {"cpu_ms_per_query", "lower"},
		} {
			va, vb := a[w][m.name], b[w][m.name]
			if len(va) < 2 || len(vb) < 2 {
				continue
			}
			v := judge(va, vb, m.better, 0, false)
			fmt.Printf("%-13s %-20s %2d+%-2d %12.5g %7.2f%% %12.5g %7.2f%% %+7.2f%% %6s  %s\n",
				w, m.name, len(va), len(vb), v.medA, 100*v.spreadA, v.medB, 100*v.spreadB, 100*v.worse, "-", "info")
		}
	}
	if failed > 0 {
		fmt.Printf("%d pairing(s) outside their bound\n", failed)
		return 1
	}
	return 0
}
