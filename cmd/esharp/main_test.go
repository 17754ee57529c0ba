package main

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/domains"
)

func TestScaleConfig(t *testing.T) {
	for _, scale := range []string{"tiny", "small", "default"} {
		cfg := scaleConfig(scale)
		if cfg.Log.Events <= 0 || cfg.MinClicks <= 0 {
			t.Errorf("scale %q produced unusable config", scale)
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
