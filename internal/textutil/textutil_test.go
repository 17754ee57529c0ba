package textutil

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"49ers", "49ers"},
		{"  San   Francisco ", "san francisco"},
		{"NFL\tDraft\n2014", "nfl draft 2014"},
		{"", ""},
		{"   ", ""},
		{"#Niners", "#niners"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	prop := func(s string) bool {
		n := Normalize(s)
		return Normalize(n) == n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzNormalize holds the allocation-free paths to the definitions they
// shortcut, over arbitrary input — Unicode whitespace and case, invalid
// UTF-8, control characters: Normalize is lower-case, split on
// whitespace, join with single spaces, whether or not the fast path
// recognized s as already normal, so its single spaces count its tokens
// (the serving layer's term cap reads them); TokenizeAppend cuts exactly
// Tokenize's tokens, after whatever dst already held; and Canonical and
// AppendCanonical both produce the sorted, de-duplicated tokens joined
// with single spaces.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"", " ", "49ers", "san francisco", "san  francisco", " 49ers", "49ers ", "NFL\tDraft\n2014",
		"#Niners", "a\u00a0b", "a\u0085b", "a\u2003b", "İstanbul ǅ", "caf\u00e9 ÉCOLE", "a\x1fb", "a\vb\fc\rd",
		"\xff\xfe bad\xc0utf8", "x y z w v u t s r q p",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		fields := strings.Fields(strings.ToLower(s))
		norm := Normalize(s)
		if want := strings.Join(fields, " "); norm != want {
			t.Fatalf("Normalize(%q) = %q, want %q", s, norm, want)
		}
		if norm != "" && strings.Count(norm, " ")+1 != len(fields) {
			t.Fatalf("Normalize(%q) = %q holds %d spaces between %d tokens", s, norm, strings.Count(norm, " "), len(fields))
		}
		if got := Tokenize(s); !slices.Equal(got, fields) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, fields)
		}
		if got := TokenizeAppend(nil, s); !slices.Equal(got, fields) {
			t.Fatalf("TokenizeAppend(nil, %q) = %q, want %q", s, got, fields)
		}
		canon := strings.Join(CanonicalTokens(slices.Clone(fields)), " ")
		if got := Canonical(s); got != canon {
			t.Fatalf("Canonical(%q) = %q, want %q", s, got, canon)
		}
		if got := AppendCanonical([]byte("kept:"), s); string(got) != "kept:"+canon {
			t.Fatalf("AppendCanonical(dst, %q) = %q, want kept: + %q", s, got, canon)
		}
		var arr [4]string
		arr[0] = "kept"
		if got := TokenizeAppend(arr[:1], s); got[0] != "kept" || !slices.Equal(got[1:], fields) {
			t.Fatalf("TokenizeAppend(dst, %q) = %q, want kept + %q", s, got, fields)
		}
	})
}

// TestAdmissionPathAllocs pins what the serve layer's admission relies
// on: normalizing a query that is already in normal form and appending
// its canonical form to a buffer with room allocates nothing, in any
// token order...
func TestAdmissionPathAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, q := range []string{"san francisco 49ers", "49ers francisco san", "schedule 49ers 49ers"} {
		want := Canonical(q)
		allocs := testing.AllocsPerRun(100, func() { buf = AppendCanonical(buf[:0], Normalize(q)) })
		if allocs != 0 || string(buf) != want {
			t.Fatalf("admission of %q: %v allocs, canonical %q; want 0 and %q", q, allocs, buf, want)
		}
	}
	// ...and so does canonicalizing one whose tokens are already sorted
	// and distinct (the served detector looks its expansion up by it).
	for _, q := range []string{"49ers", "49ers francisco san"} {
		var got string
		if allocs := testing.AllocsPerRun(100, func() { got = Canonical(q) }); allocs != 0 || got != q {
			t.Fatalf("Canonical(%q) = %q with %v allocs; want itself and 0", q, got, allocs)
		}
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("The 49ers  Won TODAY!")
	want := []string{"the", "49ers", "won", "today!"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize("   \t\n "); len(got) != 0 {
		t.Fatalf("Tokenize(whitespace) = %v, want empty", got)
	}
}

func TestContainsAll(t *testing.T) {
	text := Tokenize("Watching the 49ers draft with friends tonight")
	cases := []struct {
		query string
		want  bool
	}{
		{"49ers", true},
		{"49ers draft", true},
		{"draft 49ers", true}, // order irrelevant for AND-match
		{"49ERS", true},       // case folded at tokenize time
		{"49ers nfl", false},
		{"", false},
	}
	for _, c := range cases {
		if got := ContainsAll(text, Tokenize(c.query)); got != c.want {
			t.Errorf("ContainsAll(%q) = %v, want %v", c.query, got, c.want)
		}
	}
}

func TestPhraseImpliesAll(t *testing.T) {
	// Property: a text that holds the query as a phrase AND-matches it.
	prop := func(a, b, c string) bool {
		query := Tokenize(b)
		return len(query) == 0 || ContainsAll(Tokenize(a+" "+b+" "+c), query)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsStopword(t *testing.T) {
	if !IsStopword("The") {
		t.Error("The should be a stopword")
	}
	if IsStopword("49ers") {
		t.Error("49ers should not be a stopword")
	}
	if len(Stopwords()) == 0 {
		t.Error("Stopwords() empty")
	}
}

func TestVariantHashtag(t *testing.T) {
	if got := Variant("san francisco", VariantHashtag, 0); got != "#sanfrancisco" {
		t.Errorf("got %q", got)
	}
}

func TestVariantConcat(t *testing.T) {
	if got := Variant("san francisco", VariantConcat, 0); got != "sanfrancisco" {
		t.Errorf("got %q", got)
	}
	// Single word: no-op.
	if got := Variant("nfl", VariantConcat, 0); got != "nfl" {
		t.Errorf("got %q", got)
	}
}

func TestVariantAbbrev(t *testing.T) {
	if got := Variant("san francisco", VariantAbbrev, 0); got != "sf" {
		t.Errorf("got %q", got)
	}
	if got := Variant("world war ii", VariantAbbrev, 0); got != "wwi" {
		t.Errorf("got %q", got)
	}
}

func TestVariantDropLetterLength(t *testing.T) {
	in := "football"
	got := Variant(in, VariantDropLetter, 3)
	if utf8.RuneCountInString(got) != utf8.RuneCountInString(in)-1 {
		t.Errorf("DropLetter(%q) = %q, wrong length", in, got)
	}
}

func TestVariantSwapPreservesLetters(t *testing.T) {
	in := "football"
	got := Variant(in, VariantSwapLetters, 2)
	if len(got) != len(in) {
		t.Fatalf("swap changed length: %q -> %q", in, got)
	}
	// Same multiset of characters.
	count := func(s string) map[rune]int {
		m := map[rune]int{}
		for _, r := range s {
			m[r]++
		}
		return m
	}
	ci, cg := count(in), count(got)
	for r, n := range ci {
		if cg[r] != n {
			t.Fatalf("swap changed characters: %q -> %q", in, got)
		}
	}
}

func TestVariantShortInputsSafe(t *testing.T) {
	// No transformation may panic or produce garbage on short inputs.
	for _, in := range []string{"", "a", "ab", "abc", " "} {
		for k := 0; k < NumVariantKinds; k++ {
			for pos := 0; pos < 5; pos++ {
				got := Variant(in, VariantKind(k), pos)
				if strings.Contains(got, "  ") {
					t.Errorf("Variant(%q,%d,%d)=%q has double space", in, k, pos, got)
				}
			}
		}
	}
}

func TestVariantNeverPanicsProperty(t *testing.T) {
	prop := func(s string, k, pos int) bool {
		if k < 0 {
			k = -k
		}
		_ = Variant(s, VariantKind(k%NumVariantKinds), pos)
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVariantsDistinct(t *testing.T) {
	vs := Variants("san francisco", 6, 1)
	if len(vs) == 0 {
		t.Fatal("no variants generated")
	}
	seen := map[string]bool{"san francisco": true}
	for _, v := range vs {
		if seen[v] {
			t.Fatalf("duplicate or canonical variant %q in %v", v, vs)
		}
		seen[v] = true
	}
}

func TestVariantsRespectsMax(t *testing.T) {
	for max := 0; max < 8; max++ {
		vs := Variants("baltimore ravens", max, 0)
		if len(vs) > max {
			t.Fatalf("Variants(max=%d) returned %d", max, len(vs))
		}
	}
}

func TestTruncateRunes(t *testing.T) {
	cases := []struct {
		in   string
		n    int
		want string
	}{
		{"hello", 3, "hel"},
		{"hello", 10, "hello"},
		{"hello", 0, ""},
		{"héllo", 2, "hé"},
		{"", 5, ""},
	}
	for _, c := range cases {
		if got := TruncateRunes(c.in, c.n); got != c.want {
			t.Errorf("TruncateRunes(%q,%d) = %q, want %q", c.in, c.n, got, c.want)
		}
	}
}

func TestTruncateRunesProperty(t *testing.T) {
	prop := func(s string, n int) bool {
		if n < 0 {
			n = -n
		}
		n = n % 200
		got := TruncateRunes(s, n)
		return utf8.RuneCountInString(got) <= n && strings.HasPrefix(s, got)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkContainsAll(b *testing.B) {
	text := Tokenize("watching the 49ers draft with friends tonight at the stadium")
	query := Tokenize("49ers draft")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ContainsAll(text, query)
	}
}

func BenchmarkTokenize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Tokenize("Watching the 49ers Draft with Friends TONIGHT")
	}
}
