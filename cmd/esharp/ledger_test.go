package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments-*.txt from the current build")

// runtimeCell matches a Table 9 line up to the end of its Runtime cell
// and that cell's padding: Step and Workers are single tokens, so the
// third token is the runtime.
var runtimeCell = regexp.MustCompile(`(?m)^(\S+ +\S+ +)\S+ +`)

const table9Title = "Table 9: Resource consumption for one iteration\n"

// maskRuntimes blanks Table 9's runtime column, with its padding — the
// one wall-clock figure `esharp experiments` prints. Everything else in
// the report is a pure function of the scale and the seed.
func maskRuntimes(report string) string {
	head, rest, ok := strings.Cut(report, table9Title)
	if !ok {
		return report
	}
	table, tail, _ := strings.Cut(rest, "\n\n")
	return head + table9Title + runtimeCell.ReplaceAllString(table, "${1}<runtime>  ") + "\n\n" + tail
}

// TestExperimentsLedger renders every table and figure of the paper at
// the tiny and small scales and compares them, runtimes masked, with
// the checked-in ledger under testdata: a change to the generator, the
// offline stage or the detector that moves any number of the paper's
// evaluation fails here. The relational clustering backend (-sql) must
// print the same report as the parallel one. `make golden` (this test
// with -update) rewrites the ledger.
func TestExperimentsLedger(t *testing.T) {
	for _, scale := range []string{"tiny", "small"} {
		path := filepath.Join("testdata", "experiments-"+scale+".txt")
		for _, sql := range []bool{false, true} {
			name, args := scale, []string{"experiments", "-scale", scale}
			if sql {
				name, args = scale+"-sql", append(args, "-sql")
			}
			t.Run(name, func(t *testing.T) {
				var out strings.Builder
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				got := maskRuntimes(out.String())
				if *update && !sql {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run `make golden` to write the ledger)", err)
				}
				if d := firstDiff(string(want), got); d != "" {
					t.Errorf("esharp %v differs from %s (run `make golden` if the change is meant):\n%s", args, path, d)
				}
			})
		}
	}
}

// firstDiff describes the first few lines where got differs from
// want, or returns "" when they are equal.
func firstDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < max(len(w), len(g)) && shown < 8; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
			shown++
		}
	}
	return b.String()
}
