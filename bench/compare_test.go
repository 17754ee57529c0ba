package main

import (
	"math"
	"testing"
)

const sampleRun = `# env commit=f7ad38a go=go1.24.0 nproc=2 gomaxprocs=2 kernel=6.18.44 seed=3
# workload cold_heap
# why cache off
metric end-to-end setup_s                                0.771235 s  (median of 5 set-ups)
metric per-layer  qps                                      1660.6 1/s  (median round)
{"correct":true,"attempted":16000,"failed":0,"metrics":{"setup_s":{"value":0.77123456789,"unit":"s"}}}
`

func TestParseRunOutput(t *testing.T) {
	run, err := parseRunOutput(sampleRun)
	if err != nil {
		t.Fatal(err)
	}
	if run.workload != "cold_heap" || !run.correct {
		t.Errorf("workload %q correct %v", run.workload, run.correct)
	}
	// qps comes from its text line, setup_s from the result line.
	if got := run.metrics["qps"]; got.Value != 1660.6 || got.Unit != "1/s" {
		t.Errorf("qps = %+v", got)
	}
	if got := run.metrics["setup_s"]; got.Value != 0.77123456789 {
		t.Errorf("setup_s = %+v, want the result line's full precision", got)
	}
	if _, err := parseRunOutput("metric only\n{}\n"); err == nil {
		t.Error("output without a workload header accepted")
	}
	if _, err := parseRunOutput("# workload hot_cache\nbench: boom\n"); err == nil {
		t.Error("output without a result line accepted")
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	// Lower is better: B 5% slower passes a 10% bound, 15% slower fails.
	if v := judge(steady, scale(steady, 1.05), "lower", 0.10, true); !v.pass || math.Abs(v.worse-0.05) > 1e-9 {
		t.Errorf("5%% worse: %+v", v)
	}
	if v := judge(steady, scale(steady, 1.15), "lower", 0.10, true); v.pass {
		t.Errorf("15%% worse passed: %+v", v)
	}
	// Higher is better: the direction flips; an improvement always passes.
	if v := judge(steady, scale(steady, 0.85), "higher", 0.10, true); v.pass || v.worse < 0.14 {
		t.Errorf("15%% lower throughput: %+v", v)
	}
	if v := judge(steady, scale(steady, 1.5), "higher", 0.10, true); !v.pass || v.worse > 0 {
		t.Errorf("50%% higher throughput: %+v", v)
	}
	// A set whose own spread exceeds the bound cannot resolve the
	// metric — unless the spread is not gated (setup_s).
	noisy := []float64{80, 120, 100, 90, 110}
	if v := judge(steady, noisy, "lower", 0.10, true); v.pass {
		t.Errorf("noisy set passed: %+v", v)
	}
	if v := judge(steady, noisy, "lower", 0.10, false); !v.pass {
		t.Errorf("ungated spread failed: %+v", v)
	}
}

func TestComparisonFailsOnMissingPairing(t *testing.T) {
	var sp spec
	sp.EndToEnd = append(sp.EndToEnd, struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"setup_s", "lower", 0.25})
	steady := []float64{100, 101, 99, 100, 102}
	set := func(workloads ...string) map[string]map[string][]float64 {
		out := make(map[string]map[string][]float64)
		for _, w := range workloads {
			out[w] = map[string][]float64{"setup_s": steady}
		}
		return out
	}
	if rc := printComparison(sp, set("hot_cache", "cold_disk"), set("hot_cache", "cold_disk")); rc != 0 {
		t.Errorf("identical sets: exit %d", rc)
	}
	// A workload only one set ran fails, whichever set lacks it.
	if rc := printComparison(sp, set("hot_cache", "cold_disk"), set("hot_cache")); rc == 0 {
		t.Error("set B lacking a workload passed")
	}
	if rc := printComparison(sp, set("hot_cache"), set("hot_cache", "cold_disk")); rc == 0 {
		t.Error("set A lacking a workload passed")
	}
	// So does a gated metric one set did not report.
	b := set("hot_cache")
	delete(b["hot_cache"], "setup_s")
	if rc := printComparison(sp, set("hot_cache"), b); rc == 0 {
		t.Error("set B lacking a gated metric passed")
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
