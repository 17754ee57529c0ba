package main

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/domains"
)

// TestScaleConfig pins the one scale switch: every valid scale yields a
// usable pipeline and query-set sizes, tiny is smaller than default,
// and an unknown scale is an error naming the valid ones — never a
// silent fallback to the 600k-event small pipeline.
func TestScaleConfig(t *testing.T) {
	for _, scale := range []string{"tiny", "small", "default"} {
		cfg, sizes, err := scaleConfig(scale)
		if err != nil || cfg.Log.Events <= 0 || cfg.MinClicks <= 0 || sizes.Top <= 0 || sizes.PerCategory <= 0 {
			t.Errorf("scale %q: unusable config %+v / %+v, err %v", scale, cfg.Log, sizes, err)
		}
	}
	tiny, _, _ := scaleConfig("tiny")
	def, _, _ := scaleConfig("default")
	if tiny.Log.Events >= def.Log.Events {
		t.Error("tiny scale not smaller than default")
	}
	if _, _, err := scaleConfig("bogus"); err == nil || !strings.Contains(err.Error(), "tiny, small or default") {
		t.Errorf("unknown scale: %v, want an error naming the valid scales", err)
	}
}

// TestRunSelectsExperiments drives the experiments subcommand at the
// tiny scale: -run names one experiment and only that section is
// printed; a misspelled -run or -scale fails before any pipeline is
// built, naming the valid values.
func TestRunSelectsExperiments(t *testing.T) {
	for _, c := range []struct {
		args      []string
		want, not string
	}{
		{[]string{"experiments", "-scale", "tiny", "-run", "table1"}, "TABLE 1", "TABLE 8"},
		{[]string{"experiments", "-scale", "tiny", "-run", "table8", "-seed", "2"}, "TABLE 8", "TABLE 1"},
	} {
		var out strings.Builder
		if err := run(c.args, &out); err != nil {
			t.Fatalf("esharp %v: %v", c.args, err)
		}
		got := out.String()
		if !strings.Contains(got, c.want+"\n") || strings.Contains(got, c.not+"\n") || strings.Count(got, "\n") < 8 {
			t.Errorf("esharp %v: want the %s section and a table under it, and no %s:\n%s", c.args, c.want, c.not, got)
		}
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"experiments", "-scale", "tiny", "-run", "tabel8"}, "table8"},
		{[]string{"stats", "-scale", "bogus"}, "tiny, small or default"},
	} {
		var out strings.Builder
		if err := run(c.args, &out); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("esharp %v: %v, want an error naming %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("esharp %v printed a report:\n%s", c.args, out.String())
		}
	}
}

// TestBuildQuerySaveLoad exercises the same path as `esharp build -out`:
// build a pipeline, persist the collection, reload it and serve a query
// from the reloaded store.
func TestBuildQuerySaveLoad(t *testing.T) {
	cfg := core.TinyPipelineConfig()
	cfg.Log.Events = 20_000
	p, err := core.BuildPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "domains.bin")
	if _, err := p.Collection.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := domains.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(loaded, p.Corpus, cfg.Online)
	results, trace := det.Search("49ers")
	if len(results) == 0 {
		t.Fatal("no results from reloaded collection")
	}
	if len(trace.Expansion) == 0 {
		t.Fatal("no expansion from reloaded collection")
	}
}

// TestRunSubcommands drives every subcommand through run at the tiny
// scale and checks the report each one prints: the same entry point,
// flags and output a user at a shell gets.
func TestRunSubcommands(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "domains.bin")
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"build", "-scale", "tiny", "-shards", filepath.Join(dir, "log"), "-out", saved},
			[]string{"built in", "domains:", "collection saved to " + saved}},
		{[]string{"build", "-scale", "tiny", "-sql"}, []string{"built in", "domains:"}},
		{[]string{"query", "-scale", "tiny", "-q", "49ers", "-k", "3"},
			[]string{"baseline (", "expansion: ", "matched tweets: ", "e# ("}},
		{[]string{"query", "-scale", "tiny", "-q", "zzz nonsense"}, []string{"baseline (0 experts)", "e# (0 experts)"}},
		{[]string{"expand", "-scale", "tiny", "-q", "49ers"}, []string{"49ers"}},
		{[]string{"stats", "-scale", "tiny"}, []string{"Table 9:", "Figure 5:", "Figure 6:"}},
	} {
		var out strings.Builder
		if err := run(c.args, &out); err != nil {
			t.Fatalf("esharp %v: %v", c.args, err)
		}
		for _, want := range c.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("esharp %v prints no %q:\n%s", c.args, want, out.String())
			}
		}
	}
	if _, err := domains.Load(saved); err != nil {
		t.Errorf("build -out wrote a collection that does not load: %v", err)
	}

	var out strings.Builder
	for _, args := range [][]string{nil, {"frobnicate"}} {
		if err := run(args, &out); !errors.Is(err, errUsage) {
			t.Errorf("esharp %v: %v, want the usage error", args, err)
		}
	}
	// A subcommand's failure names the subcommand.
	if err := run([]string{"expand", "-scale", "tiny", "-q", "zzz nonsense"}, &out); err == nil || !strings.HasPrefix(err.Error(), "expand: ") {
		t.Errorf("expanding a query outside every domain: %v, want an error from expand", err)
	}
}
