package ingest_test

import (
	"fmt"

	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/world"
)

// ExampleIndex_ingest shows the write-then-read contract of the
// streaming index: every Ingest publishes a fresh epoch-tagged
// snapshot, and a snapshot answers zero-copy matches over base plus
// everything ingested before it was acquired.
func ExampleIndex_ingest() {
	w := world.Build(world.TinyConfig())
	base := microblog.BuildCorpus(w, []microblog.Post{
		{Author: 0, Text: "shipping a go generics tutorial"},
	})
	idx := ingest.New(base, ingest.DefaultConfig())
	defer idx.Close()

	idx.Ingest(microblog.Post{Author: 1, Text: "go generics deep dive"})
	idx.Ingest(microblog.Post{Author: 2, Text: "unrelated lunch post"})

	// A match takes a tokenized term (textutil.Tokenize).
	matches := func(s *ingest.Snapshot) int {
		ids, _ := s.MatchTokensAppend([]string{"generics"}, nil, nil)
		return len(ids)
	}
	snap := idx.Snapshot()
	fmt.Println("tweets:", snap.NumTweets())
	fmt.Println("matches:", matches(snap))
	fmt.Println("epoch:", snap.Epoch())

	// A snapshot is immutable: ingesting more does not change it, only
	// later snapshots see the new post.
	idx.Ingest(microblog.Post{Author: 1, Text: "generics part two"})
	fmt.Println("old still:", matches(snap), "new:", matches(idx.Snapshot()))
	// Output:
	// tweets: 3
	// matches: 2
	// epoch: 3
	// old still: 2 new: 3
}
