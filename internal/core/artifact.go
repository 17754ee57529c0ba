package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/domains"
	"repro/internal/world"
)

// Artifact is the serving artifact: what the offline stage hands the
// online stage. It holds the domain collection and a manifest — the
// world's user count and each user's base post count, from which a
// coordinator sizes every remote shard's handshake without generating
// a post. Encode and DecodeArtifact are its one format: cmd/gateway
// boots from the tiny scale's, checked in, and `esharp build -out`
// writes any scale's.
type Artifact struct {
	Collection *domains.Collection
	// BaseCounts[u] is user u's post count in the base corpus; its
	// length is the world's user count.
	BaseCounts []int
}

// artifactMagic identifies the artifact format and its version; bump
// the version on any change to the layout Encode writes.
var artifactMagic = [8]byte{'e', '#', 'a', 'r', 't', 'v', '0', '1'}

// Artifact returns the pipeline's serving artifact: its collection and
// its corpus's per-user post counts.
func (p *Pipeline) Artifact() *Artifact {
	counts := make([]int, len(p.World.Users))
	for u := range counts {
		counts[u] = p.Corpus.NumTweetsBy(world.UserID(u))
	}
	return &Artifact{Collection: p.Collection, BaseCounts: counts}
}

// Encode writes the artifact: the magic, the user count and each
// user's base post count as uvarints, then the collection in domains'
// encoding. The bytes are a pure function of the artifact, and so of
// the PipelineConfig that built it.
func (a *Artifact) Encode(w io.Writer) error {
	b := append([]byte(nil), artifactMagic[:]...)
	b = binary.AppendUvarint(b, uint64(len(a.BaseCounts)))
	for _, n := range a.BaseCounts {
		b = binary.AppendUvarint(b, uint64(n))
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	return a.Collection.Encode(w)
}

// DecodeArtifact reads an artifact written by Encode. A wrong magic, a
// short or overlong input and a count the input cannot hold are errors.
func DecodeArtifact(data []byte) (*Artifact, error) {
	if !bytes.HasPrefix(data, artifactMagic[:]) {
		return nil, errors.New("core: artifact: bad magic")
	}
	r := bytes.NewReader(data[len(artifactMagic):])
	users, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("core: artifact: user count: %w", err)
	}
	if users > uint64(r.Len()) { // every count takes a byte at least
		return nil, fmt.Errorf("core: artifact: %d users in %d bytes", users, r.Len())
	}
	counts := make([]int, users)
	for u := range counts {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("core: artifact: user %d's count: %w", u, err)
		}
		if n > math.MaxInt32 {
			return nil, fmt.Errorf("core: artifact: user %d has %d posts", u, n)
		}
		counts[u] = int(n)
	}
	coll, err := domains.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("core: artifact: domains: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("core: artifact: %d trailing bytes", r.Len())
	}
	return &Artifact{Collection: coll, BaseCounts: counts}, nil
}
