package core

import (
	"slices"
	"testing"

	"repro/internal/domains"
	"repro/internal/ingest"
	"repro/internal/shard"
	"repro/internal/textutil"
)

// TestTermSetKeyByMatchMode pins what each detector names as a query's
// term set: a MatchExact detector answers from its admission table —
// the table's key, and for a query outside every domain the query
// itself — and the relaxed modes, which have no closed table, answer
// the canonical query, so the serving layer shares nothing across
// queries for them. In every mode Expand stays what the collection
// says, and a canonical query's expansion costs nothing under
// MatchExact.
func TestTermSetKeyByMatchMode(t *testing.T) {
	p := tinyPipeline(t)
	r := shard.New(p.Corpus, 1, ingest.Config{DisableCompactor: true})
	defer r.Close()
	for _, mode := range []domains.MatchMode{domains.MatchExact, domains.MatchPhrase, domains.MatchAND} {
		cfg := p.Cfg.Online
		cfg.Match = mode
		d := NewShardedLiveDetectorOver(p.Collection, r, cfg)
		table := p.Collection.Admission(cfg.MaxExpansionTerms)
		for _, q := range []string{"49ers", "49ers schedule", "schedule 49ers", "no such term at all"} {
			if got, want := d.Expand(q), p.Collection.ExpandMode(q, cfg.MaxExpansionTerms, mode); !slices.Equal(got, want) {
				t.Errorf("%v: Expand(%q) = %q, want %q", mode, q, got, want)
			}
			canon := textutil.Canonical(q)
			want := canon
			if mode == domains.MatchExact {
				want = table.Lookup(canon).Key
			}
			if key := d.TermSetKey(canon); key != want {
				t.Errorf("%v: TermSetKey(%q) = %q, want %q", mode, canon, key, want)
			}
		}
	}
	exact := NewShardedLiveDetectorOver(p.Collection, r, p.Cfg.Online)
	if key := exact.TermSetKey("no such term at all"); key != "no such term at all" {
		t.Errorf("a query outside every domain keys on %q, want itself", key)
	}
	if allocs := testing.AllocsPerRun(100, func() { exact.Expand("49ers") }); allocs != 0 {
		t.Errorf("Expand of a canonical query allocates %v times under MatchExact, want 0", allocs)
	}
}
