package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/world"
)

// tinyArtifactBytes encodes the tiny pipeline's serving artifact.
func tinyArtifactBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tinyPipeline(t).Artifact().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArtifactRoundTrip decodes the encoded artifact and requires the
// same manifest, the same domains — terms, weights and proximity links
// — the same lookups and expansions, and the same bytes again.
func TestArtifactRoundTrip(t *testing.T) {
	p := tinyPipeline(t)
	data := tinyArtifactBytes(t)
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Artifact()
	if !slices.Equal(got.BaseCounts, want.BaseCounts) || len(got.BaseCounts) != len(p.World.Users) {
		t.Fatalf("base counts differ after the round trip")
	}
	total := 0
	for u, n := range got.BaseCounts {
		if n != p.Corpus.NumTweetsBy(world.UserID(u)) {
			t.Fatalf("user %d: %d base posts in the artifact, %d in the corpus", u, n, p.Corpus.NumTweetsBy(world.UserID(u)))
		}
		total += n
	}
	if total != p.Corpus.NumTweets() {
		t.Fatalf("the counts sum to %d posts, the corpus holds %d", total, p.Corpus.NumTweets())
	}
	a, b := want.Collection, got.Collection
	if a.NumDomains() != b.NumDomains() {
		t.Fatalf("decoded %d domains, want %d", b.NumDomains(), a.NumDomains())
	}
	for i := 0; i < a.NumDomains(); i++ {
		da, db := a.Domain(int32(i)), b.Domain(int32(i))
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("domain %d differs after the round trip", i)
		}
		if !reflect.DeepEqual(a.Closest(int32(i), 100), b.Closest(int32(i), 100)) {
			t.Fatalf("domain %d's proximity differs after the round trip", i)
		}
		for _, term := range da.Terms {
			ga, _ := a.Lookup(term)
			gb, _ := b.Lookup(term)
			if ga.ID != gb.ID || !slices.Equal(a.Expand(term, 10), b.Expand(term, 10)) {
				t.Fatalf("%q looks up or expands differently after the round trip", term)
			}
		}
	}
	var again bytes.Buffer
	if err := got.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatal("re-encoding the decoded artifact changed its bytes")
	}
}

// TestDecodeArtifactRejectsCorrupt feeds DecodeArtifact a foreign
// file, truncations of a valid artifact, a trailing byte, a user count
// the input cannot hold and a proximity link to a domain the
// collection lacks: each is an error, never a panic or a partial
// artifact.
func TestDecodeArtifactRejectsCorrupt(t *testing.T) {
	data := tinyArtifactBytes(t)
	for name, bad := range map[string][]byte{
		"foreign":  []byte("not a serving artifact"),
		"empty":    nil,
		"trailing": append(slices.Clone(data), 0),
		"users":    append(slices.Clone(artifactMagic[:]), 0xff, 0xff, 0xff, 0xff, 0x0f),
		// No users; one domain of no terms, linked to domain 5.
		"link": append(slices.Clone(artifactMagic[:]), 0, 'e', '#', 'd', 'o', 'm', 'v', '0', '1', 1, 0, 1, 5, 0),
	} {
		if _, err := DecodeArtifact(bad); err == nil {
			t.Errorf("%s input decoded without error", name)
		}
	}
	// Every cut of the first 64 bytes, ever sparser ones after (at most
	// 31 bytes apart) and the cut of the last byte: each decode of a
	// long prefix rebuilds most of the collection.
	for n := 0; n < len(data); n += max(1, min(n/64, 31)) {
		if _, err := DecodeArtifact(data[:n]); err == nil {
			t.Fatalf("the artifact cut to %d of %d bytes decoded without error", n, len(data))
		}
	}
	if _, err := DecodeArtifact(data[:len(data)-1]); err == nil {
		t.Fatal("the artifact short of its last byte decoded without error")
	}
}
