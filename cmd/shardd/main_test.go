package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/microblog"
	"repro/internal/transport"
)

// TestRunServesAndStops boots a shardd on a free port, drives the wire
// protocol against it like a coordinator would, and shuts it down.
func TestRunServesAndStops(t *testing.T) {
	fault.CheckLeaks(t)
	started := make(chan *transport.ShardServer, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-shard", "0", "-of", "2", "-seal", "64"}, &out, nil, started)
	}()
	srv := <-started

	c := transport.NewRemoteShard(srv.Addr().String(), transport.DefaultClientConfig())
	defer c.Close()
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Shard != 0 || info.NumShards != 2 {
		t.Fatalf("shardd serves %d/%d, want 0/2", info.Shard, info.NumShards)
	}
	if info.BaseTweets <= 0 || info.BaseTweets >= info.NumTweets+1 {
		t.Fatalf("implausible partition: %+v", info)
	}
	rows, matched, v, err := c.Search(context.Background(), []string{"49ers"}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	v.Release()
	if matched < 0 || len(rows) > matched*2 {
		t.Fatalf("implausible search result: %d rows, %d matched", len(rows), matched)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
	if !strings.Contains(out.String(), "shard 0/2") {
		t.Fatalf("banner missing: %q", out.String())
	}
}

// TestRunAdminPlane boots a shardd with -admin, drives wire traffic,
// and scrapes the admin endpoints: the ingest and RPC accounting of the
// live process must be visible over plain HTTP.
func TestRunAdminPlane(t *testing.T) {
	fault.CheckLeaks(t)
	started := make(chan *transport.ShardServer, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0",
			"-shard", "0", "-of", "1", "-seal", "8"}, &out, nil, started)
	}()
	srv := <-started
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Fatalf("run returned %v", err)
		}
	}()

	// Both banners are written before started is signalled, so the
	// admin address is parseable from out here.
	m := regexp.MustCompile(`admin plane on (http://\S+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("admin banner missing: %q", out.String())
	}
	base := m[1]

	// Drive one search so the RPC accounting moves.
	c := transport.NewRemoteShard(srv.Addr().String(), transport.DefaultClientConfig())
	defer c.Close()
	if _, _, v, err := c.Search(context.Background(), []string{"49ers"}, false, nil); err != nil {
		t.Fatal(err)
	} else {
		v.Release()
	}

	body := fetchOK(t, base+"/healthz")
	if !strings.HasPrefix(body, "ok") {
		t.Fatalf("/healthz = %q", body)
	}
	// The server times a request until its response is flushed, so the
	// latency histogram records after the client already has the answer:
	// wait for that row instead of racing it.
	metrics := fetchOK(t, base+"/metrics")
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(metrics, "rpc_server_search_ns_count 1") && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		metrics = fetchOK(t, base+"/metrics")
	}
	for _, row := range []string{
		"rpc_server_search_requests 1",
		"rpc_server_search_ns_count 1",
		"rpc_server_bytes_read ",
		"ingest_posts 0",
	} {
		if !strings.Contains(metrics, row) {
			t.Errorf("/metrics missing %q:\n%s", row, metrics)
		}
	}
	stats := fetchOK(t, base+"/stats")
	for _, key := range []string{`"stats"`, `"metrics"`, `"Segments"`} {
		if !strings.Contains(stats, key) {
			t.Errorf("/stats missing %s:\n%s", key, stats)
		}
	}
	if pprof := fetchOK(t, base+"/debug/pprof/"); !strings.Contains(pprof, "goroutine") {
		t.Errorf("/debug/pprof/ = %q", pprof)
	}
}

// fetchOK GETs url and returns the body, failing on any error or
// non-200 status.
func fetchOK(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestRunDataDir boots a shardd with the disk tier enabled, streams
// enough posts over the wire to force spills, and checks that sealed
// segments landed as files under <data-dir>/shard-0 while searches
// keep answering.
func TestRunDataDir(t *testing.T) {
	fault.CheckLeaks(t)
	dir := t.TempDir()
	started := make(chan *transport.ShardServer, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-shard", "0", "-of", "1",
			"-seal", "16", "-spill", "16", "-data-dir", dir}, &out, nil, started)
	}()
	srv := <-started
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Fatalf("run returned %v", err)
		}
	}()

	c := transport.NewRemoteShard(srv.Addr().String(), transport.DefaultClientConfig())
	defer c.Close()
	p, err := core.BuildPipeline(core.TinyPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream := microblog.NewPostStream(p.World, microblog.DefaultStreamConfig(7))
	posts := make([]microblog.Post, 64)
	for i := range posts {
		posts[i] = stream.Next()
	}
	if err := c.IngestBatch(posts); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "shard-0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("quiesced shardd spilled no segment files under -data-dir")
	}
	rows, matched, v, err := c.Search(context.Background(), []string{"49ers"}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	v.Release()
	if matched < 0 || len(rows) > matched*2 {
		t.Fatalf("implausible search result over spilled shard: %d rows, %d matched", len(rows), matched)
	}
}

// TestRunRejectsBadPartition pins the flag validation.
func TestRunRejectsBadPartition(t *testing.T) {
	fault.CheckLeaks(t)
	var out strings.Builder
	if err := run([]string{"-shard", "3", "-of", "2"}, &out, nil, nil); err == nil {
		t.Fatal("invalid partition accepted")
	}
	if err := run([]string{"-of", "0"}, &out, nil, nil); err == nil {
		t.Fatal("zero partitions accepted")
	}
	// The compaction fan-in is a constant, not a flag.
	if err := run([]string{"-fanin", "4"}, &out, nil, nil); err == nil {
		t.Fatal("-fanin accepted")
	}
}

// TestRunDrainsOnSignal pins the graceful-shutdown bugfix: a SIGTERM
// delivered mid-conversation drains the server within the grace budget
// and run returns nil (exit 0), with the drain narrated on stdout.
func TestRunDrainsOnSignal(t *testing.T) {
	fault.CheckLeaks(t)
	started := make(chan *transport.ShardServer, 1)
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-shard", "0", "-of", "1",
			"-grace", "5s"}, &out, sigs, started)
	}()
	srv := <-started

	// A live client conversation in progress when the signal lands.
	c := transport.NewRemoteShard(srv.Addr().String(), transport.DefaultClientConfig())
	defer c.Close()
	if _, _, v, err := c.Search(context.Background(), []string{"49ers"}, false, nil); err != nil {
		t.Fatal(err)
	} else {
		v.Release()
	}

	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	got := out.String()
	if !strings.Contains(got, "draining") || !strings.Contains(got, "drained, bye") {
		t.Fatalf("drain not narrated: %q", got)
	}
}
