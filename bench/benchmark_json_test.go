package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json to the names the
// harness reports and the workloads it knows: the acceptance driver
// refuses a run whose result lacks a declared metric.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var doc struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []named  `json:"end_to_end"`
		PerLayer   []named  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = n.Name
		}
		sort.Strings(out)
		return out
	}
	sortedCopy := func(lists ...[]string) []string {
		var out []string
		for _, l := range lists {
			out = append(out, l...)
		}
		sort.Strings(out)
		return out
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	if got, want := names(doc.Workloads), sortedCopy(wl); !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: file %v, harness %v", got, want)
	}
	if got, want := names(doc.EndToEnd), sortedCopy(endToEndNames); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: file %v, harness %v", got, want)
	}
	if got, want := names(doc.PerLayer), sortedCopy(processLayerNames, tracedLayerNames); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: file %v, harness %v", got, want)
	}
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, harness sized its rounds for %d", doc.RunSeconds, refSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
}
