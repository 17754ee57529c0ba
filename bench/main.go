// Bench is the end-to-end measurement instrument of the repository: it
// builds cmd/gateway and cmd/shardd, boots them as real processes on
// ephemeral loopback ports, preloads posts over the wire, drives
// closed-loop HTTP searches at the gateway, checks every answer against
// a cold in-process rebuild, and prints every metric by name with its
// unit. BENCHMARK.json at the checkout root is its contract; README.md
// beside this file explains every workload and metric.
//
//	go -C bench run . --workload cold_heap --seed 1 --seconds 12 --trace 0
//	go -C bench run . -smoke
//	go -C bench run . -compare setA/ setB/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wlName   = flag.String("workload", "", "workload to run: hot_cache, cold_heap, cold_disk or mixed_ingest")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs (post stream, query order, Zipf draws)")
		seconds  = flag.Float64("seconds", refSeconds, "nominal length of the measured rounds; scales the fixed op counts")
		trace    = flag.Int("trace", 0, "1 adds the in-process traced run and layer waterfall and reports the per-layer metrics")
		traceOut = flag.String("trace-out", "", "span file of the traced run (default .bench_build/trace-<workload>.json)")
		smoke    = flag.Bool("smoke", false, "run all four workloads at 1/50 of the op counts: a quick local proof")
		compare  = flag.Bool("compare", false, "compare two directories of run outputs: -compare setA/ setB/")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare setA/ setB/")
			return 2
		}
		return compareSets(flag.Arg(0), flag.Arg(1))
	}

	root, err := findRepoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	buildDir := filepath.Join(root, ".bench_build")
	binDir := filepath.Join(buildDir, "bin")
	if err := buildBinaries(root, binDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(workDir)
	// A signal must not leave children behind: deployments die with
	// their process groups, the scratch directory goes with them.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllChildren()
		os.RemoveAll(workDir)
		os.Exit(130)
	}()
	defer killAllChildren()

	printEnv(root, *seed)
	e, err := newEnv(binDir, workDir, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *smoke {
		return runSmoke(e)
	}
	w := findWorkload(*wlName)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q\n", *wlName)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	res, err := e.runOne(w, *seconds/refSeconds, setupRepeats)
	if err == nil && *trace == 1 {
		out := *traceOut
		if out == "" {
			out = filepath.Join(buildDir, "trace-"+w.name+".json")
		}
		err = e.runTraced(w, res, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if res == nil {
		return 1
	}
	metrics, want := res.endToEnd, [][]string{endToEndNames}
	if *trace == 1 {
		metrics, want = res.layers, [][]string{processLayerNames, tracedLayerNames}
	}
	if lacks := missing(metrics, want...); err == nil && len(lacks) > 0 {
		err = fmt.Errorf("bench: the run did not produce %v", lacks)
		fmt.Fprintln(os.Stderr, err)
	}
	printMetrics("end-to-end", res.endToEnd)
	printMetrics("per-layer", res.layers)
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{err == nil, res.attempted, res.failed, metrics})
	fmt.Println(string(line))
	if err != nil {
		return 1
	}
	return 0
}

// runOne plans and runs one workload.
func (e *env) runOne(w *workload, scale float64, repeats int) (*result, error) {
	p := buildPlan(w, e.seed, e.clients, len(e.pool), scale)
	fmt.Printf("# workload %s\n", w.name)
	fmt.Printf("# load %d closed-loop clients, %d searches/round, 1 warm-up + %d measured rounds, %d posts preloaded, %d set-ups\n",
		p.clients, p.searchesPerRound(), measuredRounds, w.preload, repeats)
	return e.runWorkload(w, p, repeats)
}

// runSmoke runs every workload once at 1/50 of the op counts with a
// single set-up each.
func runSmoke(e *env) int {
	start := time.Now()
	for _, w := range workloads {
		res, err := e.runOne(w, 1.0/50, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		printMetrics("end-to-end", res.endToEnd)
		printMetrics("per-layer", res.layers)
	}
	fmt.Printf("# smoke: %d workloads, 0 failed operations, %.1fs\n", len(workloads), time.Since(start).Seconds())
	return 0
}

// printEnv records the environment stanza every run output starts with.
func printEnv(root string, seed int64) {
	commit := "unknown" // the acceptance checkout is not a git repository
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	fmt.Printf("# env commit=%s go=%s nproc=%d gomaxprocs=%d kernel=%s seed=%d\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), kernel, seed)
}

// printMetrics prints one "metric <name> <value> <unit>" line per
// metric, sorted by name.
func printMetrics(kind string, m map[string]value) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m[name]
		note := ""
		if v.note != "" {
			note = "  (" + v.note + ")"
		}
		fmt.Printf("metric %-10s %-32s %14.6g %s%s\n", kind, name, v.Value, v.Unit, note)
	}
}
