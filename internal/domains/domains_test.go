package domains

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/community"
	"repro/internal/querylog"
	"repro/internal/simgraph"
	"repro/internal/textutil"
	"repro/internal/world"
)

// buildCollection runs the offline pipeline on the tiny world.
func buildCollection(t testing.TB) (*simgraph.Graph, *Collection) {
	t.Helper()
	w := world.Build(world.TinyConfig())
	log := querylog.AggregateRecords(
		querylog.NewGenerator(w, querylog.TinyGenConfig()).GenerateRecords(), 5)
	g := simgraph.Build(log, simgraph.DefaultConfig())
	res := community.DetectParallel(g.Discretize(20), community.DefaultOptions())
	return g, FromClustering(g, res)
}

func TestCollectionCoversAllTerms(t *testing.T) {
	g, c := buildCollection(t)
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if _, ok := c.Lookup(g.Term(v)); !ok {
			t.Fatalf("term %q not in any domain", g.Term(v))
		}
	}
}

func TestTermsBelongToExactlyOneDomain(t *testing.T) {
	_, c := buildCollection(t)
	seen := map[string]int32{}
	for i := 0; i < c.NumDomains(); i++ {
		d := c.Domain(int32(i))
		for _, term := range d.Terms {
			if prev, dup := seen[term]; dup {
				t.Fatalf("term %q in domains %d and %d", term, prev, d.ID)
			}
			seen[term] = d.ID
		}
	}
}

func TestLookupNormalizes(t *testing.T) {
	_, c := buildCollection(t)
	d1, ok1 := c.Lookup("49ers")
	d2, ok2 := c.Lookup("  49ERS ")
	if !ok1 || !ok2 {
		t.Skip("49ers not in tiny collection")
	}
	if d1.ID != d2.ID {
		t.Error("lookup not normalization-invariant")
	}
	if _, ok := c.Lookup("no such term at all"); ok {
		t.Error("unknown term matched")
	}
	if _, ok := c.Lookup(""); ok {
		t.Error("empty query matched")
	}
}

func TestExpandExcludesQueryAndHonorsMax(t *testing.T) {
	_, c := buildCollection(t)
	terms := c.Expand("49ers", 5)
	if len(terms) > 5 {
		t.Fatalf("Expand returned %d terms, max 5", len(terms))
	}
	for _, term := range terms {
		if term == "49ers" {
			t.Error("expansion contains the query itself")
		}
	}
	if c.Expand("zzz unknown", 5) != nil {
		t.Error("expansion of unknown query should be nil")
	}
}

func TestExpansionContainsTopicSiblings(t *testing.T) {
	_, c := buildCollection(t)
	d, ok := c.Lookup("49ers")
	if !ok {
		t.Skip("49ers missing")
	}
	if d.Size() < 2 {
		t.Fatalf("49ers domain is an orphan (%d terms)", d.Size())
	}
	// The strongest sibling should be another 49ers-topic term, e.g.
	// "niners" — assert at least that one known sibling co-clusters.
	siblings := map[string]bool{}
	for _, term := range d.Terms {
		siblings[term] = true
	}
	if !siblings["niners"] && !siblings["#niners"] && !siblings["49ers draft"] {
		t.Errorf("49ers domain lacks all known siblings: %v", d.Terms)
	}
}

func TestHeadIsMostCentral(t *testing.T) {
	_, c := buildCollection(t)
	for i := 0; i < c.NumDomains(); i++ {
		d := c.Domain(int32(i))
		for j := 1; j < len(d.Weights); j++ {
			if d.Weights[j] > d.Weights[0] {
				t.Fatalf("domain %d head %q not most central", d.ID, d.Head())
			}
		}
	}
}

func TestClosestDomainsSorted(t *testing.T) {
	_, c := buildCollection(t)
	found := false
	for i := 0; i < c.NumDomains(); i++ {
		links := c.Closest(int32(i), 3)
		for j := 1; j < len(links); j++ {
			if links[j].Weight > links[j-1].Weight {
				t.Fatalf("Closest(%d) not sorted: %v", i, links)
			}
		}
		for _, l := range links {
			if l.ID == int32(i) {
				t.Fatalf("domain %d is its own neighbor", i)
			}
		}
		if len(links) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no domain has any neighbor; proximity graph empty")
	}
}

func TestSizeHistogramSums(t *testing.T) {
	_, c := buildCollection(t)
	h := c.SizeHistogram()
	if h[0]+h[1]+h[2]+h[3] != c.NumDomains() {
		t.Errorf("histogram %v does not sum to %d", h, c.NumDomains())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	_, c := buildCollection(t)
	path := filepath.Join(t.TempDir(), "domains.bin")
	n, err := c.Save(path)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("Save reported zero bytes")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != n {
		t.Errorf("Save reported %d bytes, file is %d", n, fi.Size())
	}

	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumDomains() != c.NumDomains() {
		t.Fatalf("loaded %d domains, want %d", loaded.NumDomains(), c.NumDomains())
	}
	for i := 0; i < c.NumDomains(); i++ {
		a, b := c.Domain(int32(i)), loaded.Domain(int32(i))
		if a.Size() != b.Size() {
			t.Fatalf("domain %d size differs after round-trip", i)
		}
		for j := range a.Terms {
			if a.Terms[j] != b.Terms[j] || a.Weights[j] != b.Weights[j] {
				t.Fatalf("domain %d term %d differs", i, j)
			}
		}
		la, lb := c.Closest(int32(i), 100), loaded.Closest(int32(i), 100)
		if len(la) != len(lb) {
			t.Fatalf("domain %d proximity differs", i)
		}
		for j := range la {
			if la[j] != lb[j] {
				t.Fatalf("domain %d link %d differs", i, j)
			}
		}
	}
}

func TestLoadRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, []byte("not a domain file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("corrupt file loaded without error")
	}
	if _, err := Load(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("missing file loaded without error")
	}
	// Truncated valid file.
	_, c := buildCollection(t)
	good := filepath.Join(dir, "good.bin")
	if _, err := c.Save(good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.bin")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(trunc); err == nil {
		t.Error("truncated file loaded without error")
	}
}

func TestLookupLatency(t *testing.T) {
	// Table 9 reports "Expansion < 100 ms"; our store must answer exact
	// lookups far faster than that even in a cold loop.
	_, c := buildCollection(t)
	start := time.Now()
	const n = 10000
	for i := 0; i < n; i++ {
		c.Lookup("49ers")
		c.Expand("49ers", 10)
	}
	perOp := time.Since(start) / n
	if perOp > time.Millisecond {
		t.Errorf("lookup+expand takes %v per op, want < 1ms", perOp)
	}
}

func BenchmarkLookup(b *testing.B) {
	_, c := buildCollection(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup("49ers")
	}
}

func BenchmarkExpand(b *testing.B) {
	_, c := buildCollection(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Expand("49ers", 10)
	}
}

func BenchmarkSaveLoad(b *testing.B) {
	_, c := buildCollection(b)
	path := filepath.Join(b.TempDir(), "domains.bin")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Save(path); err != nil {
			b.Fatal(err)
		}
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}

// canonCollection is a hand-built collection with the canonical-class
// corner cases the mined tiny collection may lack: two members of one
// domain sharing a canonical form (domain 0), a canonical class split
// across two domains so one spelling loses its own domain (domains 1
// and 2), and a domain larger than any expansion cap (domain 3).
func canonCollection() *Collection {
	c := &Collection{byTerm: map[string]int32{}}
	for id, terms := range [][]string{
		{"go rust", "rust go", "golang", "gopher"},
		{"b a", "c"},
		{"a b", "d"},
		{"t00", "t01", "t02", "t03", "t04", "t05", "t06", "t07", "t08", "t09", "t10", "t11", "t12 x", "t13"},
	} {
		d := Domain{ID: int32(id), Terms: terms}
		for j, term := range terms {
			d.Weights = append(d.Weights, float64(10*(id+1)-j))
			c.byTerm[term] = d.ID
		}
		c.domains = append(c.domains, d)
	}
	return c
}

// TestAdmissionEqualsExpand is the admission table's property: for
// every member term of every domain, in its verbatim, reversed,
// duplicated and re-cased spellings, at several caps, the table's
// expansion is Expand(q, max) term for term, and its
// key is the canonical set of the terms that expansion searches — so
// equal keys mean equal term sets and nothing else does. A query
// outside every domain is its own term set.
func TestAdmissionEqualsExpand(t *testing.T) {
	_, mined := buildCollection(t)
	for name, c := range map[string]*Collection{"mined": mined, "canon": canonCollection()} {
		for _, max := range []int{1, 3, 10} {
			a := c.Admission(max)
			shared := 0
			byKey := map[string]bool{}
			for i := 0; i < c.NumDomains(); i++ {
				for _, term := range c.Domain(int32(i)).Terms {
					toks := textutil.Tokenize(term)
					rev := slices.Clone(toks)
					slices.Reverse(rev)
					for _, q := range []string{
						term,
						strings.Join(rev, " "),
						strings.Join(append(slices.Clone(toks), toks...), " "),
						"  " + strings.ToUpper(strings.Join(toks, "   ")) + " ",
					} {
						want := c.Expand(q, max)
						got := a.Lookup(textutil.Canonical(q))
						if !slices.Equal(got.Expansion, want) {
							t.Fatalf("%s max %d %q: table expands to %q, Expand to %q", name, max, q, got.Expansion, want)
						}
						set := []string{textutil.Canonical(q)}
						for _, e := range want {
							set = append(set, textutil.Canonical(e))
						}
						if wantKey := strings.Join(textutil.CanonicalTokens(set), "\t"); got.Key != wantKey {
							t.Fatalf("%s max %d %q: key %q, want %q", name, max, q, got.Key, wantKey)
						}
						if q == term {
							if byKey[got.Key] {
								shared++
							}
							byKey[got.Key] = true
						}
					}
				}
			}
			if shared == 0 {
				t.Errorf("%s max %d: no two member terms share a term set; the table would share nothing", name, max)
			}
			if got := a.Lookup("no such term"); got.Key != "no such term" || got.Expansion != nil {
				t.Errorf("%s: a query outside every domain resolved to %+v, want itself and no expansion", name, got)
			}
		}
	}
}
