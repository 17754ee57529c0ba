// Package textutil implements the light-weight text processing the e#
// pipeline relies on: lower-casing, tokenization, the two matching
// predicates from the paper (AND-match for tweets, exact in-order match
// for community lookup), and the spelling-variant generator used by the
// synthetic world to mimic the "hundreds of variants" a production query
// log contains.
//
// The paper deliberately performs no stemming or spell-correction
// (Section 4.1: queries are left unchanged "to capture as many different
// cases as possible"); this package follows suit.
//
// Normalization sits on the serving hot path (every request is
// normalized and tokenized at admission, every search term tokenized
// on its shard), so the two definitions — Normalize is lower-case,
// split on whitespace, join with single spaces; Tokenize is the split —
// each have a form that allocates nothing for input already in normal
// form: Normalize returns such a string as is, and TokenizeAppend cuts
// tokens as substrings into caller scratch. FuzzNormalize holds both to
// the definitions on arbitrary input.
package textutil

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize lower-cases s and collapses runs of whitespace into single
// spaces. This is the only normalization the paper applies before
// matching. A string that is already its own normal form is returned
// as is, without allocating.
func Normalize(s string) string {
	if isNormal(s) {
		return s
	}
	return strings.Join(Tokenize(s), " ")
}

// isNormal recognizes, without allocating, the fixed points of
// Normalize that are cheap to recognize: ASCII strings with no
// upper-case letter and no whitespace other than single spaces between
// tokens. A false answer only means "take the general path" — non-ASCII
// fixed points are not recognized.
func isNormal(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf, 'A' <= c && c <= 'Z', '\t' <= c && c <= '\r':
			return false
		case c == ' ':
			if i == 0 || i == len(s)-1 || s[i-1] == ' ' {
				return false
			}
		}
	}
	return true
}

// Tokenize lower-cases s and splits it into tokens on whitespace.
// Punctuation is preserved inside tokens (so "49ers" and "#niners" stay
// intact), matching the paper's choice to keep query variants verbatim.
func Tokenize(s string) []string {
	return strings.Fields(strings.ToLower(s))
}

// TokenizeAppend is Tokenize into caller scratch: the tokens of s are
// appended to dst and the grown slice returned. The tokens are
// substrings of the lower-cased s — of s itself when it holds no
// upper-case letter — so a query that is already lower-case is
// tokenized without allocating once dst has the capacity.
func TokenizeAppend(dst []string, s string) []string {
	for f := range strings.FieldsSeq(strings.ToLower(s)) {
		dst = append(dst, f)
	}
	return dst
}

// CanonicalTokens sorts tokens ascending and removes duplicates, in
// place, returning the (possibly shortened) slice. Two queries that are
// permutations or repetitions of one another reduce to the same
// canonical token slice — the equivalence class under which the
// AND-match predicate (ContainsAll) is invariant. Callers must own the
// slice: its order is destroyed.
func CanonicalTokens(tokens []string) []string {
	if len(tokens) < 2 {
		return tokens
	}
	slices.Sort(tokens)
	out := tokens[:1]
	for _, t := range tokens[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// TokensCanonical reports whether tokens is already its own canonical
// form — strictly increasing, so sorted with no duplicates — in which
// case the string they were cut from needs no re-join. Single-token
// queries, the common case, always pass.
func TokensCanonical(tokens []string) bool {
	for i := 1; i < len(tokens); i++ {
		if tokens[i] <= tokens[i-1] {
			return false
		}
	}
	return true
}

// Canonical reduces s to its canonical token-set form: lower-cased,
// tokenized, sorted, de-duplicated and re-joined with single spaces.
// "Rust go", "go rust" and "go go rust" all canonicalize to "go rust".
// A string that is already canonical and recognizably normal (see
// Normalize) is returned as is, without allocating.
func Canonical(s string) string {
	norm := Normalize(s)
	var arr [8]string
	toks := TokenizeAppend(arr[:0], norm)
	if TokensCanonical(toks) {
		return norm
	}
	return strings.Join(CanonicalTokens(toks), " ")
}

// ContainsAll reports whether every token of query appears among the
// tokens of text (both lower-cased). This is the paper's default tweet
// matching predicate: "a tweet matches a query if it contains all of its
// terms after lower-casing".
func ContainsAll(textTokens []string, queryTokens []string) bool {
	if len(queryTokens) == 0 {
		return false
	}
	for _, q := range queryTokens {
		found := false
		for _, t := range textTokens {
			if t == q {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// stopwords is a small English list; the generators use it to pad tweet
// text with realistic filler that the matcher must ignore.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "and": true, "or": true,
	"of": true, "in": true, "on": true, "at": true, "to": true,
	"is": true, "are": true, "was": true, "for": true, "with": true,
	"this": true, "that": true, "it": true, "as": true, "by": true,
	"be": true, "from": true, "about": true, "just": true, "so": true,
	"my": true, "we": true, "you": true, "i": true, "not": true,
}

// IsStopword reports whether the lower-cased token is a common English
// stopword.
func IsStopword(tok string) bool {
	return stopwords[strings.ToLower(tok)]
}

// Stopwords returns a copy of the built-in stopword list, sorted order
// unspecified.
func Stopwords() []string {
	out := make([]string, 0, len(stopwords))
	for w := range stopwords {
		out = append(out, w)
	}
	return out
}

// VariantKind enumerates the spelling-variant transformations the
// synthetic query-log generator applies to canonical keywords, mirroring
// the variant families the paper cites (football / fotbal / foot /
// #sanfrancisco / sf ...).
type VariantKind int

const (
	// VariantHashtag prefixes the concatenated keyword with '#'.
	VariantHashtag VariantKind = iota
	// VariantConcat removes the spaces of a multi-word keyword.
	VariantConcat
	// VariantDropLetter removes one interior letter (a typo).
	VariantDropLetter
	// VariantSwapLetters transposes two adjacent interior letters.
	VariantSwapLetters
	// VariantAbbrev keeps the first letter of each word.
	VariantAbbrev
	// VariantDoubleLetter doubles one interior letter.
	VariantDoubleLetter
	numVariantKinds
)

// NumVariantKinds is the number of distinct variant transformations.
const NumVariantKinds = int(numVariantKinds)

// Variant applies the given transformation to a canonical keyword. The
// pos argument selects the mutation site deterministically (callers pass
// an RNG draw); it is reduced modulo the valid range. If the
// transformation is not applicable (for example VariantConcat on a
// single-word keyword) the canonical form is returned unchanged, so
// callers can filter with != original.
func Variant(keyword string, kind VariantKind, pos int) string {
	kw := strings.ToLower(strings.TrimSpace(keyword))
	if kw == "" {
		return kw
	}
	if pos < 0 {
		pos = -pos
	}
	switch kind {
	case VariantHashtag:
		return "#" + strings.ReplaceAll(kw, " ", "")
	case VariantConcat:
		return strings.ReplaceAll(kw, " ", "")
	case VariantDropLetter:
		runes := []rune(kw)
		if len(runes) < 4 {
			return kw
		}
		i := 1 + pos%(len(runes)-2)
		if runes[i] == ' ' {
			i++
			if i >= len(runes)-1 {
				return kw
			}
		}
		return string(runes[:i]) + string(runes[i+1:])
	case VariantSwapLetters:
		runes := []rune(kw)
		if len(runes) < 4 {
			return kw
		}
		i := 1 + pos%(len(runes)-3)
		if runes[i] == ' ' || runes[i+1] == ' ' || runes[i] == runes[i+1] {
			return kw
		}
		runes[i], runes[i+1] = runes[i+1], runes[i]
		return string(runes)
	case VariantAbbrev:
		words := strings.Fields(kw)
		if len(words) < 2 {
			return kw
		}
		var b strings.Builder
		for _, w := range words {
			r := []rune(w)
			b.WriteRune(r[0])
		}
		return b.String()
	case VariantDoubleLetter:
		runes := []rune(kw)
		if len(runes) < 3 {
			return kw
		}
		i := 1 + pos%(len(runes)-2)
		if runes[i] == ' ' || !unicode.IsLetter(runes[i]) {
			return kw
		}
		return string(runes[:i+1]) + string(runes[i:])
	default:
		return kw
	}
}

// Variants generates up to max distinct variants of keyword, cycling
// through the transformation kinds with the mutation site advanced by
// salt. The canonical form itself is never included.
func Variants(keyword string, max, salt int) []string {
	canon := Normalize(keyword)
	seen := map[string]bool{canon: true}
	var out []string
	for round := 0; round < 4 && len(out) < max; round++ {
		for k := 0; k < NumVariantKinds && len(out) < max; k++ {
			v := Variant(canon, VariantKind(k), salt+round*7+k)
			if v == "" || seen[v] {
				continue
			}
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TruncateRunes returns s truncated to at most n runes. The microblog
// generator uses it to enforce the 140-character post limit.
func TruncateRunes(s string, n int) string {
	if n <= 0 {
		return ""
	}
	count := 0
	for i := range s {
		if count == n {
			return s[:i]
		}
		count++
	}
	return s
}
