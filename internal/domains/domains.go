// Package domains holds the offline product of the e# pipeline: the
// collection of expertise domains (term communities), indexed for the
// exact-match lookup of Section 5 and encoded in a compact binary
// format (the domains section of core's serving artifact). It replaces
// the paper's SQL Server 2014 store, whose only requirements are
// millisecond lookups and a ~100 MB footprint.
package domains

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/community"
	"repro/internal/simgraph"
	"repro/internal/textutil"
)

// Domain is one topic of expertise: a set of related query terms.
type Domain struct {
	// ID is the dense domain identifier.
	ID int32
	// Terms are the member query strings, sorted by descending weight
	// (the head term first).
	Terms []string
	// Weights mirror Terms: each term's total intra-domain edge weight,
	// used to order expansion terms by how central they are.
	Weights []float64
}

// Head returns the domain's most central term.
func (d *Domain) Head() string {
	if len(d.Terms) == 0 {
		return ""
	}
	return d.Terms[0]
}

// Size returns the number of member terms.
func (d *Domain) Size() int { return len(d.Terms) }

// Collection is the queryable set of domains.
type Collection struct {
	domains []Domain
	// proximity[a] lists the closest other domains of a, strongest
	// first (inter-domain similarity mass) — the data behind Figure 7.
	proximity [][]DomainLink
	// byCanon maps the canonical form (textutil.Canonical: sorted,
	// de-duplicated tokens) of every member term to the domain that
	// wins that canonical class (highest intra-domain weight; ties
	// break toward the lower domain, then the more central term). It is
	// the lookup table: Lookup — and so expansion and the whole search —
	// is a pure function of the query's canonical token set, so the
	// serve layer may share one cache/singleflight entry across
	// reordered or duplicated spellings of the same query.
	byCanon map[string]int32
	// canonTerms mirrors domains[i].Terms with each term's canonical
	// form, for canonical-class exclusion during expansion.
	canonTerms [][]string
}

// DomainLink is a weighted reference to a nearby domain.
type DomainLink struct {
	ID     int32
	Weight float64
}

// FromClustering assembles a Collection from a similarity graph and a
// community detection result over its discretized form. Orphan
// communities (single terms) are kept: they still answer exact queries,
// they just contribute no expansion.
func FromClustering(g *simgraph.Graph, res *community.Result) *Collection {
	c := &Collection{
		domains: make([]Domain, res.NumCommunities),
	}
	// Intra-domain term weights: sum of edge weights to co-members.
	intraWeight := make([]float64, g.NumVertices())
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		for _, n := range g.Neighbors(v) {
			if res.Labels[v] == res.Labels[n.To] {
				intraWeight[v] += n.Weight
			}
		}
	}
	for _, members := range res.Members() {
		if len(members) == 0 {
			continue
		}
		id := res.Labels[members[0]]
		d := Domain{ID: id}
		sort.Slice(members, func(i, j int) bool {
			wi, wj := intraWeight[members[i]], intraWeight[members[j]]
			if wi != wj {
				return wi > wj
			}
			return members[i] < members[j]
		})
		for _, v := range members {
			term := g.Term(v)
			d.Terms = append(d.Terms, term)
			d.Weights = append(d.Weights, intraWeight[v])
		}
		c.domains[id] = d
	}

	// Inter-domain proximity: accumulate cross-community edge weight
	// from both the strong (clustered) edges and the weak proximity
	// tier — the weak tier is what links a community to its Figure 7
	// neighbors after clustering separated them.
	cross := map[uint64]float64{}
	addCross := func(v, to int32, w float64) {
		a, b := res.Labels[v], res.Labels[to]
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		cross[uint64(uint32(a))<<32|uint64(uint32(b))] += w
	}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		for _, n := range g.Neighbors(v) {
			if n.To > v {
				addCross(v, n.To, n.Weight)
			}
		}
	}
	for _, e := range g.WeakEdges() {
		addCross(e.A, e.B, e.Weight)
	}
	c.proximity = make([][]DomainLink, len(c.domains))
	for k, w := range cross {
		a, b := int32(k>>32), int32(k&0xffffffff)
		c.proximity[a] = append(c.proximity[a], DomainLink{ID: b, Weight: w})
		c.proximity[b] = append(c.proximity[b], DomainLink{ID: a, Weight: w})
	}
	for i := range c.proximity {
		p := c.proximity[i]
		sort.Slice(p, func(x, y int) bool {
			if p[x].Weight != p[y].Weight {
				return p[x].Weight > p[y].Weight
			}
			return p[x].ID < p[y].ID
		})
	}
	c.indexCanon()
	return c
}

// NumDomains returns the number of domains.
func (c *Collection) NumDomains() int { return len(c.domains) }

// Domain returns the domain with the given ID.
func (c *Collection) Domain(id int32) *Domain { return &c.domains[id] }

// indexCanon builds the canonical lookup tables from the domains.
func (c *Collection) indexCanon() {
	type winner struct {
		domain int32
		weight float64
	}
	best := map[string]winner{}
	c.canonTerms = make([][]string, len(c.domains))
	for i := range c.domains {
		d := &c.domains[i]
		ct := make([]string, len(d.Terms))
		for j, t := range d.Terms {
			k := textutil.Canonical(t)
			ct[j] = k
			// Strict > keeps the first maximum: domains iterate in ID
			// order and Terms are weight-sorted, so ties resolve to the
			// lower domain and its most central term — deterministic.
			if w, ok := best[k]; !ok || d.Weights[j] > w.weight {
				best[k] = winner{domain: d.ID, weight: d.Weights[j]}
			}
		}
		c.canonTerms[i] = ct
	}
	c.byCanon = make(map[string]int32, len(best))
	for k, w := range best {
		c.byCanon[k] = w.domain
	}
}

// Lookup finds the domain containing the query "exactly and in order,
// after lower-casing" (Section 5), up to token order and repetition:
// it is the canonical table, byCanon[textutil.Canonical(query)]. A
// verbatim member resolves to its own domain unless another domain's
// member of the same canonical class outweighs it; every spelling of
// the class then routes to that one deterministic winner. Ignoring
// token order is what justifies the serve layer coalescing "rust go"
// onto "go rust": the tweet-matching predicate (AND over tokens) is
// itself order- and duplicate-insensitive, so token order only ever
// mattered here. The second return is false when no domain contains
// the term.
func (c *Collection) Lookup(query string) (*Domain, bool) {
	if id, ok := c.byCanon[textutil.Canonical(query)]; ok {
		return &c.domains[id], true
	}
	return nil, false
}

// Expand returns up to maxTerms related terms for the query (the other
// members of its domain, most central first), excluding the query
// itself. An empty slice means the query matched an orphan or no domain.
func (c *Collection) Expand(query string, maxTerms int) []string {
	canon := textutil.Canonical(query)
	id, ok := c.byCanon[canon]
	if !ok {
		return nil
	}
	return c.expandFrom(&c.domains[id], canon, maxTerms)
}

// expandFrom lists up to maxTerms members of d excluding every term in
// the canonical class canonQ (a reordered spelling of a member must
// not expand into itself).
func (c *Collection) expandFrom(d *Domain, canonQ string, maxTerms int) []string {
	ct := c.canonTerms[d.ID]
	out := make([]string, 0, min(maxTerms, len(d.Terms)))
	for i, t := range d.Terms {
		if ct[i] == canonQ {
			continue
		}
		out = append(out, t)
		if len(out) == maxTerms {
			break
		}
	}
	return out
}

// TermSet is what one query expands to: the terms a
// search for it matches, as an identity and as a list.
type TermSet struct {
	// Key identifies the set of terms searched — the query and its
	// expansion, each in canonical form (textutil.Canonical), sorted,
	// de-duplicated and joined with tabs (a token never holds
	// whitespace, so the join is unambiguous). The AND-match predicate
	// sees a term as its token set and the matched tweets as the union
	// over terms, so two queries with equal keys have the same answer
	// over the same posts. Every query with the same key carries the
	// same string, not a copy.
	Key string
	// Expansion is Expand of the query, shared by every lookup:
	// read-only.
	Expansion []string
}

// Admission tabulates Expand for one expansion cap: every query the
// collection can expand, resolved once so the online stage's expansion
// step is a map lookup that allocates nothing. Lookup and expansion are
// pure functions of the query's canonical token set (see Lookup), so
// the table is keyed on it and covers every spelling. An Admission is
// immutable and safe for concurrent use.
type Admission struct {
	byCanon map[string]TermSet
}

// Admission builds the table of Expand(q, maxTerms) over every
// canonical class of member terms.
func (c *Collection) Admission(maxTerms int) *Admission {
	a := &Admission{byCanon: make(map[string]TermSet, len(c.byCanon))}
	keys := map[string]string{} // interned: one string per distinct term set
	var terms []string
	for canon, id := range c.byCanon {
		ts := TermSet{Expansion: c.expandFrom(&c.domains[id], canon, maxTerms)}
		terms = append(terms[:0], canon)
		for _, t := range ts.Expansion {
			terms = append(terms, textutil.Canonical(t))
		}
		key := strings.Join(textutil.CanonicalTokens(terms), "\t")
		if interned, ok := keys[key]; ok {
			key = interned
		} else {
			keys[key] = key
		}
		ts.Key = key
		a.byCanon[canon] = ts
	}
	return a
}

// Lookup returns the term set of the query whose canonical form is
// canon, and whether the table holds it: a query outside every domain
// expands to nothing and is its own term set, which the caller names.
// The lookup allocates nothing, so canon can stay in the caller's
// scratch.
func (a *Admission) Lookup(canon []byte) (TermSet, bool) {
	ts, ok := a.byCanon[string(canon)]
	return ts, ok
}

// Closest returns up to k closest other domains (Figure 7's neighboring
// communities).
func (c *Collection) Closest(id int32, k int) []DomainLink {
	p := c.proximity[id]
	if len(p) > k {
		p = p[:k]
	}
	out := make([]DomainLink, len(p))
	copy(out, p)
	return out
}

// SizeHistogram buckets domain sizes as in Figure 6.
func (c *Collection) SizeHistogram() [4]int {
	var hist [4]int
	for i := range c.domains {
		switch n := c.domains[i].Size(); {
		case n <= 1:
			hist[0]++
		case n <= 10:
			hist[1]++
		case n <= 50:
			hist[2]++
		default:
			hist[3]++
		}
	}
	return hist
}

// magic identifies the encoding; bump the version on change.
var magic = [8]byte{'e', '#', 'd', 'o', 'm', 'v', '0', '1'}

// Encode writes the collection in a compact varint-delimited binary
// format: the domains section of the serving artifact (core.Artifact).
// The bytes are a pure function of the collection.
func (c *Collection) Encode(w io.Writer) error {
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := w.Write(buf[:n])
		return err
	}
	writeString := func(s string) error {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := io.WriteString(w, s)
		return err
	}
	if err := writeUvarint(uint64(len(c.domains))); err != nil {
		return err
	}
	for i := range c.domains {
		d := &c.domains[i]
		if err := writeUvarint(uint64(len(d.Terms))); err != nil {
			return err
		}
		for j, t := range d.Terms {
			if err := writeString(t); err != nil {
				return err
			}
			if err := writeUvarint(math.Float64bits(d.Weights[j])); err != nil {
				return err
			}
		}
		links := c.proximity[i]
		if err := writeUvarint(uint64(len(links))); err != nil {
			return err
		}
		for _, l := range links {
			if err := writeUvarint(uint64(uint32(l.ID))); err != nil {
				return err
			}
			if err := writeUvarint(math.Float64bits(l.Weight)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Decode reads a collection written by Encode, consuming exactly its
// bytes from r.
func Decode(r io.ByteReader) (*Collection, error) {
	readByte := func() (byte, error) { return r.ReadByte() }
	for _, m := range magic {
		b, err := readByte()
		if err != nil {
			return nil, err
		}
		if b != m {
			return nil, fmt.Errorf("bad magic byte %#x", b)
		}
	}
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(r) }
	readString := func() (string, error) {
		n, err := readUvarint()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("string length %d too large", n)
		}
		b := make([]byte, n)
		for i := range b {
			c, err := readByte()
			if err != nil {
				return "", err
			}
			b[i] = c
		}
		return string(b), nil
	}
	nd, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if nd > 1<<28 {
		return nil, fmt.Errorf("domain count %d too large", nd)
	}
	c := &Collection{
		domains:   make([]Domain, nd),
		proximity: make([][]DomainLink, nd),
	}
	for i := range c.domains {
		nt, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if nt > 1<<24 {
			return nil, fmt.Errorf("term count %d too large", nt)
		}
		d := Domain{ID: int32(i)}
		for j := uint64(0); j < nt; j++ {
			t, err := readString()
			if err != nil {
				return nil, err
			}
			wb, err := readUvarint()
			if err != nil {
				return nil, err
			}
			d.Terms = append(d.Terms, t)
			d.Weights = append(d.Weights, math.Float64frombits(wb))
		}
		nl, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if nl > nd {
			return nil, fmt.Errorf("link count %d too large", nl)
		}
		for j := uint64(0); j < nl; j++ {
			id, err := readUvarint()
			if err != nil {
				return nil, err
			}
			if id >= nd {
				return nil, fmt.Errorf("domain %d links to domain %d of %d", i, id, nd)
			}
			wb, err := readUvarint()
			if err != nil {
				return nil, err
			}
			c.proximity[i] = append(c.proximity[i], DomainLink{
				ID:     int32(id),
				Weight: math.Float64frombits(wb),
			})
		}
		c.domains[i] = d
	}
	c.indexCanon()
	return c, nil
}
