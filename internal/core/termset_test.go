package core

import (
	"slices"
	"testing"

	"repro/internal/ingest"
	"repro/internal/shard"
	"repro/internal/textutil"
)

// TestTermSetKey pins what the served detector names as a query's term
// set: it answers from its admission table — the table's key, and for a
// query outside every domain the query itself — while Expand stays what
// the collection says.
func TestTermSetKey(t *testing.T) {
	p := tinyPipeline(t)
	r := shard.New(p.Corpus, 1, ingest.Config{DisableCompactor: true})
	defer r.Close()
	cfg := p.Cfg.Online
	d := NewShardedLiveDetectorOver(p.Collection, r, cfg)
	table := p.Collection.Admission(cfg.MaxExpansionTerms)
	for _, q := range []string{"49ers", "49ers schedule", "schedule 49ers", "no such term at all"} {
		if got, want := d.Expand(q), p.Collection.Expand(q, cfg.MaxExpansionTerms); !slices.Equal(got, want) {
			t.Errorf("Expand(%q) = %q, want %q", q, got, want)
		}
		canon := textutil.Canonical(q)
		if key, want := d.TermSetKey(canon), table.Lookup(canon).Key; key != want {
			t.Errorf("TermSetKey(%q) = %q, want %q", canon, key, want)
		}
	}
	if key := d.TermSetKey("no such term at all"); key != "no such term at all" {
		t.Errorf("a query outside every domain keys on %q, want itself", key)
	}
}

// TestExpandAllocatesNothing pins the expansion step of every served
// search: a lower-case query is canonicalized in a stack buffer and its
// expansion read from the admission table, in canonical order or not.
func TestExpandAllocatesNothing(t *testing.T) {
	p := tinyPipeline(t)
	r := shard.New(p.Corpus, 1, ingest.Config{DisableCompactor: true})
	defer r.Close()
	d := NewShardedLiveDetectorOver(p.Collection, r, p.Cfg.Online)
	for _, q := range []string{"49ers", "vintage cars", "schedule 49ers 49ers", "no such term at all"} {
		if allocs := testing.AllocsPerRun(100, func() { d.Expand(q) }); allocs != 0 {
			t.Errorf("Expand(%q) allocates %v times, want 0", q, allocs)
		}
	}
}
