package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeRun saves a run output as bench/ prints one: the workload
// header, a per-layer metric line and the final JSON result line.
func writeRun(t *testing.T, path, workload string, rss, cpu float64, correct bool) {
	t.Helper()
	out := fmt.Sprintf("# workload %s\nmetric per-layer  shardd.cpu_ms_per_query  %g ms\n"+
		`{"correct":%v,"attempted":10,"failed":0,"metrics":{"rss_peak_mb":{"value":%g,"unit":"MiB"}}}`+"\n",
		workload, cpu, correct, rss)
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSummarisePairs pins the table: medians, the parent's quartiles
// as Python's statistics.quantiles computes them, the median per-pair
// ratio and "lower in k of n", for metrics from the result line and
// from the text lines alike; a run that was not correct fails the
// status.
func TestSummarisePairs(t *testing.T) {
	dir := t.TempDir()
	parent, change := filepath.Join(dir, "parent"), filepath.Join(dir, "change")
	for _, d := range []string{parent, change} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range []float64{30.5, 29.0, 31.25} {
		name := fmt.Sprintf("cold_heap-%d.txt", i)
		writeRun(t, filepath.Join(parent, name), "cold_heap", p, 0.5, true)
		writeRun(t, filepath.Join(change, name), "cold_heap", p-1+float64(i/2)*2, 0.5, true)
	}
	var out strings.Builder
	if status := summarise(&out, parent, change, regexp.MustCompile(`rss|cpu`)); status != 0 {
		t.Fatalf("status %d:\n%s", status, out.String())
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		rows[strings.Join(strings.Fields(line), " ")] = true
	}
	for _, want := range []string{
		"cold_heap rss_peak_mb 3 30.5 [29, 31.25] 29.5 0.9672 2/3",
		"cold_heap shardd.cpu_ms_per_query 3 0.5 [0.5, 0.5] 0.5 1.0000 0/3",
	} {
		if !rows[want] {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}

	writeRun(t, filepath.Join(change, "cold_heap-0.txt"), "cold_heap", 29.5, 0.5, false)
	if status := summarise(&strings.Builder{}, parent, change, regexp.MustCompile(`rss`)); status != 1 {
		t.Fatalf("a run that was not correct: status %d, want 1", status)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
