package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/microblog"
	"repro/internal/transport"
	"repro/internal/world"
)

// TestRunServesAndStops boots a shardd on a free port, drives the wire
// protocol against it like a coordinator would, and shuts it down.
func TestRunServesAndStops(t *testing.T) {
	fault.CheckLeaks(t)
	started := make(chan *transport.ShardServer, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-shard", "0", "-of", "2"}, &out, nil, started)
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
	if !strings.Contains(out.String(), "shard 0/2") || !strings.Contains(out.String(), "seal 2048, fan-in 4") {
		t.Fatalf("banner missing: %q", out.String())
	}
}

// TestRunAdminPlane boots a shardd with -admin, drives wire traffic,
// and scrapes the admin endpoints: the ingest and RPC accounting of the
// live process must be visible over plain HTTP, once and as a stream.
func TestRunAdminPlane(t *testing.T) {
	fault.CheckLeaks(t)
	started := make(chan *transport.ShardServer, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0",
			"-shard", "0", "-of", "1"}, &out, nil, started)
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
	if _, _, _, v, err := c.SearchStats(context.Background(), []string{"49ers"}, false, nil, nil); err != nil {
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
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(metrics, "rpc_server_search_stats_ns_count 1") && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		metrics = fetchOK(t, base+"/metrics")
	}
	for _, row := range []string{
		"rpc_server_search_stats_requests 1",
		"rpc_server_search_stats_ns_count 1",
		"rpc_server_bytes_read ",
		"ingest_posts 0",
	} {
		if !strings.Contains(metrics, row) {
			t.Errorf("/metrics missing %q:\n%s", row, metrics)
		}
	}
	checkRowNames(t, metrics)
	stats := fetchOK(t, base+"/stats")
	for _, key := range []string{`"stats"`, `"metrics"`, `"Segments"`} {
		if !strings.Contains(stats, key) {
			t.Errorf("/stats missing %s:\n%s", key, stats)
		}
	}
	if pprof := fetchOK(t, base+"/debug/pprof/"); !strings.Contains(pprof, "goroutine") {
		t.Errorf("/debug/pprof/ = %q", pprof)
	}
	// /watch streams the /stats body; one frame is enough here.
	resp, err := http.Get(base + "/watch?interval=10ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	if resp.StatusCode != http.StatusOK || !sc.Scan() {
		t.Fatalf("/watch: status %d, %v", resp.StatusCode, sc.Err())
	}
	for _, key := range []string{`"stats"`, `"metrics"`, `"Segments"`} {
		if !strings.Contains(sc.Text(), key) {
			t.Errorf("/watch frame missing %s:\n%s", key, sc.Text())
		}
	}
}

// checkRowNames compares the row names of a /metrics body with the
// checked-in list in testdata/metric_rows.txt, one name a line: a
// renamed, dropped or added row fails here, not only in bench/.
func checkRowNames(t *testing.T, metrics string) {
	t.Helper()
	want, err := os.ReadFile("testdata/metric_rows.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(metrics, "\n") {
		if name, _, ok := strings.Cut(line, " "); ok {
			got.WriteString(name + "\n")
		}
	}
	if got.String() != string(want) {
		t.Errorf("/metrics row names differ from testdata/metric_rows.txt:\n got:\n%s\nwant:\n%s", got.String(), want)
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
// enough posts over the wire to force a spill — four default seals,
// whose compaction crosses the 8192-post spill threshold — and checks
// that the merged segment landed as a file under <data-dir>/shard-0
// while searches keep answering.
func TestRunDataDir(t *testing.T) {
	fault.CheckLeaks(t)
	dir := t.TempDir()
	started := make(chan *transport.ShardServer, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-shard", "0", "-of", "1",
			"-data-dir", dir}, &out, nil, started)
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
	w := world.Build(core.TinyPipelineConfig().World)
	stream := microblog.NewPostStream(w, microblog.DefaultStreamConfig(7))
	posts := make([]microblog.Post, 4*2048)
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
	// The index runs at ingest.DefaultConfig: none of it is a flag.
	for _, flag := range []string{"-fanin", "-seal", "-spill"} {
		if err := run([]string{flag, "4"}, &out, nil, nil); err == nil {
			t.Fatalf("%s accepted", flag)
		}
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
	if _, _, _, v, err := c.SearchStats(context.Background(), []string{"49ers"}, false, nil, nil); err != nil {
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

// bootBytes bounds what a one-shard shardd allocates from run's start
// to started: the world, the generated base, its partition and index,
// and the listener. FromTweets adopts the partition, measured at
// 5.71 MB; a boot that copies it once more allocates 6.40 MB.
const bootBytes = 6_050_000

// TestBootAllocs pins the boot's allocation: a shardd that copies its
// partition again, or indexes the whole base before partitioning it,
// goes over bootBytes.
func TestBootAllocs(t *testing.T) {
	fault.CheckLeaks(t)
	started := make(chan *transport.ShardServer, 1)
	done := make(chan error, 1)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-shard", "0", "-of", "1"}, io.Discard, nil, started)
	}()
	var srv *transport.ShardServer
	select {
	case srv = <-started:
	case err := <-done:
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > bootBytes {
		t.Fatalf("a boot allocated %d bytes, over its %d-byte bound", got, bootBytes)
	}
	t.Logf("a boot allocated %d bytes", after.TotalAlloc-before.TotalAlloc)
}

// BenchmarkBoot times run from its start to started for the one-shard
// deployment: the base generated, the whole of it partitioned, indexed
// and listening. The shutdown after each boot is outside the timer.
func BenchmarkBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		started := make(chan *transport.ShardServer, 1)
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"-addr", "127.0.0.1:0", "-shard", "0", "-of", "1"}, io.Discard, nil, started)
		}()
		var srv *transport.ShardServer
		select {
		case srv = <-started:
		case err := <-done:
			b.Fatal(err)
		}
		b.StopTimer()
		srv.Close()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
