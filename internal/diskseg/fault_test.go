package diskseg_test

// The disk-fault suite: every storage-level fault the chaos harness
// can inject — refused opens, failed maps, short reads, truncated
// files, flipped bytes — must surface as a clean sentinel error from
// Open. Nothing past Open ever sees a faulty byte (the whole file is
// checksummed up front), so "clean error, never a wrong ranking" is
// pinned here once for every downstream consumer.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diskseg"
	"repro/internal/fault"
	"repro/internal/microblog"
	"repro/internal/world"
)

// writeSegFile writes a tiny corpus segment and returns its path and
// size.
func writeSegFile(t *testing.T) (string, int) {
	t.Helper()
	w := world.Build(world.TinyConfig())
	c := microblog.Generate(w, microblog.TinyGenConfig())
	path := filepath.Join(t.TempDir(), "seg.esg")
	if err := writeImage(path, c); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, int(st.Size())
}

func TestOpenRefused(t *testing.T) {
	path, _ := writeSegFile(t)
	io := fault.NewDiskIO()
	io.FailOpens(nil)
	if _, err := diskseg.Open(path, io); !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("err = %v, want ErrKilled", err)
	}
	io.Heal()
	s, err := diskseg.Open(path, io)
	if err != nil {
		t.Fatalf("healed open failed: %v", err)
	}
	s.Release()
}

func TestMmapRefused(t *testing.T) {
	path, _ := writeSegFile(t)
	io := fault.NewDiskIO()
	io.FailMmaps(nil)
	if _, err := diskseg.Open(path, io); !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("err = %v, want ErrKilled", err)
	}
}

// TestTruncatedFile sweeps truncation points across the whole file —
// every prefix must yield ErrTruncated or ErrChecksum, never a
// segment and never a panic.
func TestTruncatedFile(t *testing.T) {
	path, size := writeSegFile(t)
	step := size/97 + 1 // ~100 cut points incl. awkward mid-varint ones
	for cut := 0; cut < size; cut += step {
		io := fault.NewDiskIO()
		io.TruncateTo(cut)
		s, err := diskseg.Open(path, io)
		if err == nil {
			s.Release()
			t.Fatalf("cut at %d/%d bytes: opened cleanly", cut, size)
		}
		if !errors.Is(err, diskseg.ErrTruncated) && !errors.Is(err, diskseg.ErrChecksum) {
			t.Fatalf("cut at %d/%d bytes: err = %v, want ErrTruncated or ErrChecksum", cut, size, err)
		}
	}
}

// TestCorruptByte flips one byte at offsets spread over every section
// of the file. Every flip must be caught at Open as a sentinel error;
// a flip that survived to the read path could silently reorder a
// ranking.
func TestCorruptByte(t *testing.T) {
	path, size := writeSegFile(t)
	step := size/211 + 1
	for off := 0; off < size; off += step {
		io := fault.NewDiskIO()
		io.CorruptByte(off)
		s, err := diskseg.Open(path, io)
		if err == nil {
			s.Release()
			t.Fatalf("flip at %d/%d: opened cleanly", off, size)
		}
		if !errors.Is(err, diskseg.ErrChecksum) && !errors.Is(err, diskseg.ErrCorrupt) && !errors.Is(err, diskseg.ErrTruncated) {
			t.Fatalf("flip at %d/%d: err = %v, want a diskseg sentinel", off, size, err)
		}
	}
}

// smallImage encodes a 150-post corpus (two full tweet blocks and a
// short one) whose posts carry zero, one and several mentions: small
// enough to fault every single byte of its feature column.
func smallImage(t testing.TB) []byte {
	t.Helper()
	w := world.Build(world.TinyConfig())
	posts := make([]microblog.Post, 150)
	for i := range posts {
		posts[i] = microblog.Post{
			Author: world.UserID(i % len(w.Users)), Text: "coffee #niners 49ers", RetweetCount: i % 5, Topic: -1,
		}
		for m := 0; m < i%4; m++ {
			posts[i].Mentions = append(posts[i].Mentions, world.UserID((i+7*m)%len(w.Users)))
		}
	}
	img, err := diskseg.Encode(microblog.BuildCorpus(w, posts))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// openImage writes an image to a fresh file and opens it.
func openImage(t *testing.T, data []byte) (*diskseg.Segment, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.esg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return diskseg.Open(path, nil)
}

// TestFeatureSectionFaults is the dense form of the two sweeps above
// over the feature column, the one section the ranking path reads in
// place with no decode step that could notice a bad byte later: every
// single flipped byte and every truncation point inside it must fail
// at Open.
func TestFeatureSectionFaults(t *testing.T) {
	img := smallImage(t)
	path := filepath.Join(t.TempDir(), "seg.esg")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	off, n := diskseg.Section(img, diskseg.SecFeatures)
	if off+n != len(img) {
		t.Fatalf("feature section [%d:+%d) is not the file's tail (%d bytes)", off, n, len(img))
	}
	for at := off; at < off+n; at++ {
		io := fault.NewDiskIO()
		io.CorruptByte(at)
		if s, err := diskseg.Open(path, io); err == nil {
			s.Release()
			t.Fatalf("flip at feature byte %d/%d: opened cleanly", at-off, n)
		} else if !errors.Is(err, diskseg.ErrChecksum) && !errors.Is(err, diskseg.ErrCorrupt) {
			t.Fatalf("flip at feature byte %d/%d: err = %v, want ErrChecksum or ErrCorrupt", at-off, n, err)
		}
		io.Heal()
		io.TruncateTo(at)
		if s, err := diskseg.Open(path, io); err == nil {
			s.Release()
			t.Fatalf("cut at feature byte %d/%d: opened cleanly", at-off, n)
		} else if !errors.Is(err, diskseg.ErrTruncated) {
			t.Fatalf("cut at feature byte %d/%d: err = %v, want ErrTruncated", at-off, n, err)
		}
	}
	s, err := diskseg.Open(path, fault.NewDiskIO())
	if err != nil {
		t.Fatalf("pristine image: %v", err)
	}
	s.Release()
}

// TestFeatureColumnStructure patches single feature rows of a valid
// image and recomputes the checksums, so only the structural checks
// stand between the defect and the ranking path: a mention offset past
// the pool, one running backwards, one landing mid-varint, an author or
// a mentioned user outside the universe, and a short column must all be
// ErrCorrupt at Open.
func TestFeatureColumnStructure(t *testing.T) {
	img := smallImage(t)
	off, n := diskseg.Section(img, diskseg.SecFeatures)
	const posts = 150
	poolOff := off + diskseg.FeatureRow*(posts+1)
	poolLen := off + n - poolOff
	mentionsOff := func(row int) int { return off + diskseg.FeatureRow*row + 8 }
	for _, tc := range []struct {
		name  string
		patch func(b []byte)
	}{
		{"mentionsOff past the pool", func(b []byte) {
			binary.LittleEndian.PutUint32(b[mentionsOff(40):], uint32(poolLen+1))
		}},
		{"mentionsOff far out of range", func(b []byte) {
			binary.LittleEndian.PutUint32(b[mentionsOff(40):], 1<<30)
		}},
		{"mentionsOff runs backwards", func(b []byte) {
			binary.LittleEndian.PutUint32(b[mentionsOff(40):], 0)
		}},
		{"first mentionsOff not zero", func(b []byte) {
			binary.LittleEndian.PutUint32(b[mentionsOff(0):], 1)
		}},
		{"sentinel short of the pool", func(b []byte) {
			// Drops the last post's one two-byte mention: trailing bytes.
			binary.LittleEndian.PutUint32(b[mentionsOff(posts):], uint32(poolLen-2))
		}},
		{"mention ends mid-varint", func(b []byte) { b[poolOff+poolLen-1] |= 0x80 }},
		{"mentioned user outside the universe", func(b []byte) {
			// Post 3's three one-byte mentions become one three-byte one.
			copy(b[poolOff+3:], []byte{0xff, 0xff, 0x7f})
		}},
		{"author outside the universe", func(b []byte) {
			binary.LittleEndian.PutUint32(b[off+diskseg.FeatureRow*3:], diskseg.HashtagBit|1<<20)
		}},
	} {
		bad := append([]byte(nil), img...)
		tc.patch(bad)
		diskseg.Reseal(bad)
		s, err := openImage(t, bad)
		if err == nil {
			s.Release()
			t.Fatalf("%s: opened cleanly", tc.name)
		}
		if !errors.Is(err, diskseg.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestBlockStructure does the same for the posting and tweet blocks,
// which the read path decodes unchecked: before Open walked them, each
// of these images opened cleanly and panicked at the first query or
// log page that reached the block.
func TestBlockStructure(t *testing.T) {
	img := smallImage(t)
	post, _ := diskseg.Section(img, diskseg.SecPostings)
	tw, _ := diskseg.Section(img, diskseg.SecTweets)
	// The first term's first block holds ids 0, 1, 2, ...: byte 0 is id
	// 0, byte 1 the delta to id 1. Every record is term-coded, 8 bytes:
	// topic+1 (0), h = 6 (three ranks), then the ranks of "coffee",
	// "#niners" and "49ers" in the three-term dictionary, 16 bits each.
	// Post 63's ends its block, so Open reads its ranks one by one.
	last := tw + 8*(diskseg.TweetBlockLen-1)
	for _, tc := range []struct {
		name  string
		patch func(b []byte)
		want  string // in the error
	}{
		{"zero delta", func(b []byte) { b[post+1] = 0 }, ""},
		{"block starts off its directory id", func(b []byte) { b[post] = 1 }, ""},
		{"block ends mid-varint", func(b []byte) { b[post+1] = 0x81 }, ""},
		{"text past the block", func(b []byte) { b[tw+1], b[tw+2] = 0xff, 0x7f }, "text past the block"},
		{"rank at the term count", func(b []byte) { b[tw+2], b[tw+3] = 3, 0 }, "rank 3 of 3 terms"},
		{"rank past 8 bits", func(b []byte) { b[tw+3] = 1 }, "rank 258 of 3 terms"},
		{"third rank at the term count", func(b []byte) { b[tw+6] = 3 }, "rank 3 of 3 terms"},
		{"block's last rank at the term count", func(b []byte) { b[last+6] = 3 }, "rank 3 of 3 terms"},
		{"term count of 0", func(b []byte) { b[tw+1] = 0 }, "no terms"},
		{"ranks past the block", func(b []byte) { b[tw+1], b[tw+2] = 0xfe, 0x7f }, "ranks past the block"},
	} {
		bad := append([]byte(nil), img...)
		tc.patch(bad)
		diskseg.Reseal(bad)
		s, err := openImage(t, bad)
		if err == nil {
			s.Release()
			t.Fatalf("%s: opened cleanly", tc.name)
		}
		if !errors.Is(err, diskseg.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want ErrCorrupt for %q", tc.name, err, tc.want)
		}
	}
}

// TestUnencodableRetweetCount: a count past the column's 32 bits (the
// wire refuses one; an in-process caller must not pass one) must fail
// the write rather than be stored truncated. A user's retweets received
// may sum past 32 bits: they are stored exactly.
func TestUnencodableRetweetCount(t *testing.T) {
	w := world.Build(world.TinyConfig())
	for _, rt64 := range []int64{1 << 32, -1} {
		rt := int(rt64)
		if int64(rt) != rt64 {
			continue // a 32-bit int cannot hold the count to begin with
		}
		c := microblog.BuildCorpus(w, []microblog.Post{{Author: 1, Text: "viral", RetweetCount: rt, Topic: -1}})
		path := filepath.Join(t.TempDir(), "seg.esg")
		if err := writeImage(path, c); err == nil {
			t.Fatalf("retweet count %d: written", rt)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("retweet count %d: a file was left behind: %v", rt, err)
		}
	}

	// Two posts of 3·10⁹ retweets each fit the column one by one; their
	// author's sum does not fit 32 bits, and the stats section's 64-bit
	// retweets array holds it exactly — through Encode over both posts
	// and through the merge of two one-post segments.
	const big = 3_000_000_000
	if int64(int(int64(big))) != big {
		return
	}
	viral := microblog.Post{Author: 1, Text: "viral", RetweetCount: int(int64(big)), Topic: -1}
	both, err := diskseg.Encode(microblog.BuildCorpus(w, []microblog.Post{viral, viral}))
	if err != nil {
		t.Fatalf("two posts whose retweets sum past 32 bits: %v", err)
	}
	var parts []*diskseg.Segment
	for j := 0; j < 2; j++ {
		img, err := diskseg.Encode(microblog.BuildCorpus(w, []microblog.Post{viral}))
		if err != nil {
			t.Fatalf("one post of %d retweets: %v", big, err)
		}
		s, err := diskseg.Load(img)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		parts = append(parts, s)
	}
	merged, err := diskseg.EncodeMerged(parts)
	if err != nil {
		t.Fatalf("merge of two segments whose author's retweets sum past 32 bits: %v", err)
	}
	for name, img := range map[string][]byte{"encoded": both, "merged": merged} {
		s, err := diskseg.Load(img)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.NumRetweetsOf(1); int64(got) != 2*big {
			t.Fatalf("%s: user 1 received %d retweets, want %d", name, got, int64(2*big))
		}
		s.Release()
	}
}

// TestVersion1Rejected feeds Open well-formed images of earlier
// formats: the 132-byte, five-section header of an empty v1 segment,
// checksum valid under v1's rules, and a v3 image (raw-text records,
// the current header) with its checksums valid. Each must be refused
// as ErrCorrupt on its version, not misread as a short or damaged
// header of the current one. (No migration exists or is needed: the
// spill directory is wiped at boot.)
func TestVersion1Rejected(t *testing.T) {
	const v1Header = 8 + 4 + 16 + 5*20 + 4
	v1 := make([]byte, v1Header)
	copy(v1, "e#dsksg1")
	binary.LittleEndian.PutUint32(v1[8:], 1)
	for sec := 0; sec < 5; sec++ {
		binary.LittleEndian.PutUint64(v1[28+20*sec:], v1Header) // empty section at EOF, CRC 0
	}
	binary.LittleEndian.PutUint32(v1[v1Header-4:], crc32.ChecksumIEEE(v1[:v1Header-4]))
	v3 := smallImage(t)
	binary.LittleEndian.PutUint32(v3[8:], 3)
	diskseg.Reseal(v3)
	for name, img := range map[string][]byte{"v1": v1, "v3": v3} {
		if s, err := openImage(t, img); err == nil {
			s.Release()
			t.Fatalf("%s image opened cleanly", name)
		} else if !errors.Is(err, diskseg.ErrCorrupt) {
			t.Fatalf("%s image: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestEmptyAndGarbageFiles covers the degenerate inputs an operator
// can hand the loader: an empty file and a file of the right size but
// the wrong content.
func TestEmptyAndGarbageFiles(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.esg")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := diskseg.Open(empty, nil); !errors.Is(err, diskseg.ErrTruncated) {
		t.Fatalf("empty file: err = %v, want ErrTruncated", err)
	}
	garbage := filepath.Join(dir, "garbage.esg")
	junk := make([]byte, 4096)
	for i := range junk {
		junk[i] = byte(i * 31)
	}
	if err := os.WriteFile(garbage, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := diskseg.Open(garbage, nil); !errors.Is(err, diskseg.ErrCorrupt) {
		t.Fatalf("garbage file: err = %v, want ErrCorrupt", err)
	}
	if _, err := diskseg.Open(filepath.Join(dir, "missing.esg"), nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want ErrNotExist", err)
	}
}
