package core

import (
	"slices"
	"testing"

	"repro/internal/ingest"
	"repro/internal/textutil"
)

// TestTermSetKey pins what the served detector names as a query's term
// set: it answers from its admission table — the table's key, and ""
// for a query outside every domain, which the caller names by its own
// text — while Expand stays what the collection says.
func TestTermSetKey(t *testing.T) {
	p := tinyPipeline(t)
	r := localCluster(t, p, 1, ingest.Config{DisableCompactor: true})
	defer r.Close()
	cfg := p.Cfg.Online
	d := NewShardedLiveDetectorOver(p.Collection, r, cfg)
	table := p.Collection.Admission(cfg.MaxExpansionTerms)
	for _, q := range []string{"49ers", "49ers schedule", "schedule 49ers", "no such term at all"} {
		if got, want := d.Expand(q), p.Collection.Expand(q, cfg.MaxExpansionTerms); !slices.Equal(got, want) {
			t.Errorf("Expand(%q) = %q, want %q", q, got, want)
		}
		canon := []byte(textutil.Canonical(q))
		want, _ := table.Lookup(canon)
		if key := d.TermSetKey(canon); key != want.Key {
			t.Errorf("TermSetKey(%q) = %q, want %q", canon, key, want.Key)
		}
	}
	if key := d.TermSetKey([]byte("no such term at all")); key != "" {
		t.Errorf("a query outside every domain keys on %q, want \"\" (its own term set)", key)
	}
	// The served path's admission hands its scratch over: a query in the
	// table keys on the table's own string.
	canon := []byte("49ers")
	if allocs := testing.AllocsPerRun(100, func() { d.TermSetKey(canon) }); allocs != 0 {
		t.Errorf("TermSetKey(%q) allocates %v times, want 0", canon, allocs)
	}
}

// TestExpandAllocatesNothing pins the expansion step of every served
// search: a lower-case query is canonicalized in a stack buffer and its
// expansion read from the admission table, in canonical order or not.
func TestExpandAllocatesNothing(t *testing.T) {
	p := tinyPipeline(t)
	r := localCluster(t, p, 1, ingest.Config{DisableCompactor: true})
	defer r.Close()
	d := NewShardedLiveDetectorOver(p.Collection, r, p.Cfg.Online)
	for _, q := range []string{"49ers", "vintage cars", "schedule 49ers 49ers", "no such term at all"} {
		if allocs := testing.AllocsPerRun(100, func() { d.Expand(q) }); allocs != 0 {
			t.Errorf("Expand(%q) allocates %v times, want 0", q, allocs)
		}
	}
}
