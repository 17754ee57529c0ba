package topology_test

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/microblog"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/topology"
	"repro/internal/transport"
)

var (
	pipeOnce sync.Once
	pipe     *core.Pipeline
	pipeErr  error
)

func testPipeline(t testing.TB) *core.Pipeline {
	t.Helper()
	pipeOnce.Do(func() { pipe, pipeErr = core.BuildPipeline(core.TinyPipelineConfig()) })
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe
}

// TestParse pins the -remote syntax: ',' between shards, '|' between
// the members of one, primary first, blanks trimmed, and no empty
// address anywhere.
func TestParse(t *testing.T) {
	got, err := topology.Parse("a:1|b:2, c:3")
	if err != nil {
		t.Fatal(err)
	}
	want := topology.Topology{{{Addr: "a:1"}, {Addr: "b:2"}}, {{Addr: "c:3"}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "a:1,,c:3", "a:1|", "|b:2"} {
		if _, err := topology.Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted an empty address", bad)
		}
	}
	if got := topology.InProcess(2, 3); len(got) != 2 || len(got[1]) != 3 || got[1][2].Addr != "" {
		t.Fatalf("InProcess(2, 3) = %v", got)
	}
}

// TestBuildInProcess wires two shards of two in-process replicas with a
// disk tier: each shard is a replica set of indexes over its base
// partition, and each index spills into a directory of its own.
func TestBuildInProcess(t *testing.T) {
	fault.CheckLeaks(t)
	p := testPipeline(t)
	dir := t.TempDir()
	c, err := topology.InProcess(2, 2).Build(p.Corpus,
		ingest.Config{SealThreshold: 16, CompactFanIn: 3, SpillDir: dir, SpillThreshold: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(5))
	for i := 0; i < 300; i++ {
		if err := c.IngestBatch([]microblog.Post{s.Next()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.NumShards(); i++ {
		set, ok := c.Backend(i).(*replica.Set)
		if !ok || set.NumReplicas() != 2 {
			t.Fatalf("shard %d is %T, want a replica set of 2", i, c.Backend(i))
		}
		for j := 0; j < 2; j++ {
			idx := set.Replica(j).(*shard.Local).Index()
			if got, want := idx.Base().NumTweets(), shard.Partition(p.Corpus, i, 2).NumTweets(); got != want {
				t.Fatalf("shard %d replica %d holds %d base tweets, its partition %d", i, j, got, want)
			}
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		files, _ := filepath.Glob(filepath.Join(dir, e.Name(), "*.esg"))
		if !e.IsDir() || len(files) == 0 {
			t.Fatalf("spill entry %s: a directory with segments expected", e.Name())
		}
		names = append(names, e.Name())
	}
	if want := []string{"shard-0", "shard-0-replica-1", "shard-1", "shard-1-replica-1"}; !slices.Equal(names, want) {
		t.Fatalf("spill directories %v, want %v", names, want)
	}
}

// TestBuildDialsAndHandshakes pins the remote wiring step: every
// address of a shard must serve the same partition coordinates (the
// handshake runs per member), a shard with a mis-deployed member fails
// the whole build with the offender named and every client already
// dialed closed, and a topology with no shards, or a shard with no
// members, is refused.
func TestBuildDialsAndHandshakes(t *testing.T) {
	fault.CheckLeaks(t)
	p := testPipeline(t)
	serveShard := func(i, n int) string {
		idx := ingest.New(shard.Partition(p.Corpus, i, n), ingest.DefaultConfig())
		srv, err := transport.Listen("127.0.0.1:0", idx, transport.DefaultServerConfig(i, n))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Close()
			idx.Close()
		})
		return srv.Addr().String()
	}
	a, b, c := serveShard(0, 2), serveShard(0, 2), serveShard(1, 2)

	cluster, err := topology.Topology{{{Addr: a}, {Addr: b}}, {{Addr: c}}}.Build(p.Corpus, ingest.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, ok := cluster.Backend(0).(*replica.Set)
	if !ok || set.NumReplicas() != 2 {
		t.Fatalf("shard 0 is %T, want a replica set of 2", cluster.Backend(0))
	}
	for j := 0; j < 2; j++ {
		if e, err := set.Replica(j).Epoch(); err != nil || e == 0 {
			t.Fatalf("replica %d: epoch %d, err %v", j, e, err)
		}
	}
	if _, ok := cluster.Backend(1).(*transport.RemoteShard); !ok {
		t.Fatalf("shard 1 is %T, want a remote shard", cluster.Backend(1))
	}
	cluster.Close()

	// Shard 0's second member serves shard 1: the whole build fails,
	// naming it, after shard 0's primary was already dialed.
	_, err = topology.Topology{{{Addr: a}, {Addr: c}}, {{Addr: c}}}.Build(p.Corpus, ingest.Config{}, nil)
	if err == nil || !strings.Contains(err.Error(), "shard 0 member "+c) {
		t.Fatalf("a mis-deployed member: %v, want an error naming shard 0 member %s", err, c)
	}
	for _, bad := range []topology.Topology{nil, {{{Addr: a}}, {}}} {
		if _, err := bad.Build(p.Corpus, ingest.Config{}, nil); err == nil {
			t.Fatalf("topology %v accepted", bad)
		}
	}
}
