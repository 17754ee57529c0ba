package main

import (
	"strings"
	"testing"
)

func TestConfigForScales(t *testing.T) {
	for _, scale := range []string{"tiny", "small", "default"} {
		cfg, sizes := configFor(scale)
		if cfg.Log.Events <= 0 {
			t.Errorf("scale %q: no events", scale)
		}
		if sizes.Top <= 0 || sizes.PerCategory <= 0 {
			t.Errorf("scale %q: bad set sizes", scale)
		}
	}
	tiny, _ := configFor("tiny")
	def, _ := configFor("default")
	if tiny.Log.Events >= def.Log.Events {
		t.Error("tiny scale not smaller than default")
	}
}

func TestConfigForUnknownFallsBack(t *testing.T) {
	cfg, _ := configFor("bogus")
	small, _ := configFor("small")
	if cfg.Log.Events != small.Log.Events {
		t.Error("unknown scale should behave like small")
	}
}

// TestRunSelectsExperiments drives run at the tiny scale: -run names
// one experiment and only that section is printed.
func TestRunSelectsExperiments(t *testing.T) {
	for _, c := range []struct {
		args      []string
		want, not string
	}{
		{[]string{"-scale", "tiny", "-run", "table1"}, "TABLE 1", "TABLE 8"},
		{[]string{"-scale", "tiny", "-run", "table8", "-seed", "2"}, "TABLE 8", "TABLE 1"},
	} {
		var out strings.Builder
		if err := run(c.args, &out); err != nil {
			t.Fatalf("experiments %v: %v", c.args, err)
		}
		got := out.String()
		if !strings.Contains(got, c.want+"\n") || strings.Contains(got, c.not+"\n") || strings.Count(got, "\n") < 8 {
			t.Errorf("experiments %v: want the %s section and a table under it, and no %s:\n%s", c.args, c.want, c.not, got)
		}
	}
}
