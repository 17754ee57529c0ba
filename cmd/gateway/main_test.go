package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/transport"
)

// bootGateway starts run() on a free port and returns the bound
// address plus the done channel carrying run's return value.
func bootGateway(t *testing.T, extra ...string) (string, chan os.Signal, chan error, *strings.Builder) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-shards", "2"}, extra...)
	ready := make(chan string, 1)
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() { done <- run(args, &out, sigs, ready) }()
	select {
	case addr := <-ready:
		return addr, sigs, done, &out
	case err := <-done:
		t.Fatalf("run exited before ready: %v\n%s", err, out.String())
		return "", nil, nil, nil
	}
}

// TestRunServesAndDrains boots the gateway process loop, drives an
// authenticated search and the auth refusals over real HTTP, then
// delivers SIGTERM and requires a clean drain: run returns nil (exit
// 0) and narrates the shutdown.
func TestRunServesAndDrains(t *testing.T) {
	fault.CheckLeaks(t)
	addr, sigs, done, out := bootGateway(t)
	url := "http://" + addr + "/v1/search"

	req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(`{"query":"vintage cars"}`))
	req.Header.Set("Authorization", "Bearer dev")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authed search: status %d: %s", resp.StatusCode, body)
	}
	var decoded struct {
		Experts json.RawMessage `json:"experts"`
	}
	if err := json.Unmarshal(body, &decoded); err != nil || string(decoded.Experts) == "null" {
		t.Fatalf("malformed search body %s (err %v)", body, err)
	}

	resp, err = http.Post(url, "application/json", strings.NewReader(`{"query":"vintage cars"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated search: status %d, want 401", resp.StatusCode)
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
	if got := out.String(); !strings.Contains(got, "drained, bye") {
		t.Fatalf("drain not narrated: %q", got)
	}
}

// TestRunAdminPlane boots with -admin and scrapes the shared plane:
// both serve_* and gateway_* metric families must be visible.
func TestRunAdminPlane(t *testing.T) {
	fault.CheckLeaks(t)
	addr, sigs, done, out := bootGateway(t, "-admin", "127.0.0.1:0")
	defer func() {
		sigs <- syscall.SIGTERM
		if err := <-done; err != nil {
			t.Fatalf("run returned %v", err)
		}
	}()

	req, _ := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/search",
		strings.NewReader(`{"query":"vintage cars"}`))
	req.Header.Set("Authorization", "Bearer dev")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(adminBase(t, out.String()) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, row := range []string{"gateway_requests 1", "gateway_ok 1", "serve_queries 1"} {
		if !strings.Contains(string(metrics), row) {
			t.Errorf("/metrics missing %q:\n%s", row, metrics)
		}
	}
}

// TestWatchSlowLogDeltas drives the slow-log half of the admin plane's
// /watch: a real search through the public port shows up, with the term
// set it was cached under, in exactly one frame — a frame carries only
// the traces recorded since the one before it.
func TestWatchSlowLogDeltas(t *testing.T) {
	fault.CheckLeaks(t)
	addr, sigs, done, out := bootGateway(t, "-admin", "127.0.0.1:0")
	defer func() {
		sigs <- syscall.SIGTERM
		if err := <-done; err != nil {
			t.Fatalf("run returned %v", err)
		}
	}()
	resp, err := http.Get(adminBase(t, out.String()) + "/watch?interval=20ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/watch status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	readSlow := func() []obs.QueryTrace {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("watch stream ended: %v", sc.Err())
		}
		var f struct {
			Stats struct {
				Serve json.RawMessage `json:"serve"`
			} `json:"stats"`
			Slow []obs.QueryTrace `json:"slow_queries"`
		}
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		if f.Stats.Serve == nil {
			t.Fatalf("frame lacks stats.serve: %s", sc.Text())
		}
		return f.Slow
	}
	if slow := readSlow(); len(slow) != 0 {
		t.Fatalf("first frame carries %d slow queries, want none", len(slow))
	}

	req, _ := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/search", strings.NewReader(`{"query":"49ers"}`))
	req.Header.Set("Authorization", "Bearer dev")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", sresp.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	slow := readSlow()
	for len(slow) == 0 && time.Now().Before(deadline) {
		slow = readSlow()
	}
	if len(slow) != 1 {
		t.Fatalf("frame carries %d slow queries, want the one search: %+v", len(slow), slow)
	}
	if q := slow[0]; q.Query != "49ers" || !strings.Contains("\t"+q.TermSet+"\t", "\t49ers\t") {
		t.Fatalf("slow delta carries query %q under term set %q, want \"49ers\" under a set holding it", q.Query, q.TermSet)
	}
	if again := readSlow(); len(again) != 0 {
		t.Fatalf("the next frame repeats %d slow queries: %+v", len(again), again)
	}
}

// TestRunRejectsBadFlags pins the flag validation paths.
func TestRunRejectsBadFlags(t *testing.T) {
	fault.CheckLeaks(t)
	var out strings.Builder
	if err := run([]string{"-shards", "0"}, &out, nil, nil); err == nil {
		t.Fatal("zero shards accepted")
	}
	if err := run([]string{"-tokens", "a:b::"}, &out, nil, nil); err == nil {
		t.Fatal("malformed token spec accepted")
	}
	if err := run([]string{"-tokens", ""}, &out, nil, nil); err == nil {
		t.Fatal("empty token table accepted")
	}
	// The gateway has no ingest route, so it has no index to tune.
	if err := run([]string{"-seal", "1"}, &out, nil, nil); err == nil {
		t.Fatal("-seal accepted: nothing can post to a gateway's in-process shards")
	}
}

// adminBase returns the admin plane's base URL from the boot banner.
func adminBase(t *testing.T, banner string) string {
	t.Helper()
	i := strings.Index(banner, "admin plane on http://")
	if i < 0 {
		t.Fatalf("admin banner missing: %q", banner)
	}
	return strings.Fields(banner[i+len("admin plane on "):])[0]
}

// TestHealthzFollowsShards pins the probe an orchestrator reads: a
// coordinator whose shard answers is healthy, and once the shard is
// gone /healthz turns 503 and names it — as soon as the serving layer's
// own view sample (the epoch vector) can no longer observe it.
func TestHealthzFollowsShards(t *testing.T) {
	fault.CheckLeaks(t)
	pipeline, err := core.BuildPipeline(core.TinyPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	idx := ingest.New(pipeline.Corpus, ingest.Config{DisableCompactor: true})
	defer idx.Close()
	shardSrv, err := transport.Listen("127.0.0.1:0", idx, transport.DefaultServerConfig(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer shardSrv.Close()

	_, sigs, done, out := bootGateway(t, "-admin", "127.0.0.1:0", "-remote", shardSrv.Addr().String())
	defer func() {
		sigs <- syscall.SIGTERM
		if err := <-done; err != nil {
			t.Fatalf("run returned %v", err)
		}
	}()
	healthz := func() (int, string) {
		resp, err := http.Get(adminBase(t, out.String()) + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if status, body := healthz(); status != http.StatusOK {
		t.Fatalf("/healthz with the shard up: %d %q, want 200", status, body)
	}
	shardSrv.Close()
	// The subscription reader notices the close asynchronously; from then
	// on every probe fails (one dial per backoff window, refused at once
	// in between).
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, body := healthz()
		if status == http.StatusServiceUnavailable {
			if !strings.Contains(body, "shards [0] unreachable") {
				t.Fatalf("503 does not name the shard: %q", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz still %d %q 5s after the shard closed", status, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
