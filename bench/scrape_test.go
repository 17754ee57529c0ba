package main

import (
	"os"
	"path/filepath"
	"testing"
)

// The fixtures under testdata/ were captured from a running gateway and
// shardd of this repository (and from /proc of the gateway process).

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseProcStat(t *testing.T) {
	// utime 3, stime 1.
	ticks, err := parseProcStat(fixture(t, "proc_stat.txt"))
	if err != nil || ticks != 3+1 {
		t.Errorf("captured stat: %d ticks, %v; want 4", ticks, err)
	}
	// A command name with spaces and parentheses must not shift fields.
	hostile := []byte("77 (a b) c) (d) S 1 77 77 0 -1 4194560 100 0 0 0 7 5 0 0 20 0 9 0 100 1 2 3\n")
	if ticks, err := parseProcStat(hostile); err != nil || ticks != 12 {
		t.Errorf("hostile command name: %d ticks, %v; want 12", ticks, err)
	}
	for name, bad := range map[string]string{
		"no parenthesis": "77 gateway S 1 77",
		"too short":      "77 (gateway) S 1 77 77 0",
		"not a number":   "77 (gateway) S 1 77 77 0 -1 4194560 100 0 0 0 x 5 0 0",
	} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseSchedstat(t *testing.T) {
	ns, err := parseSchedstat([]byte("1351233 4076723 2\n"))
	if err != nil || ns != 1351233 {
		t.Errorf("schedstat: %d, %v", ns, err)
	}
	if _, err := parseSchedstat([]byte("1351233 4076723\n")); err == nil {
		t.Error("two-field schedstat accepted")
	}
}

func TestCPUMillisOfThisProcess(t *testing.T) {
	// Not a spawn: the test reads its own /proc entry, through whichever
	// of the two clocks this kernel has. CPU time never runs backwards.
	a, err := cpuMillis(os.Getpid())
	if err != nil {
		t.Skipf("no /proc CPU accounting here: %v", err)
	}
	x := 0
	for i := 0; i < 20_000_000; i++ {
		x += i & 3
	}
	b, err := cpuMillis(os.Getpid())
	if err != nil || b < a || x == 0 {
		t.Errorf("cpu went from %.3f ms to %.3f ms (%v)", a, b, err)
	}
	if ticks, err := cpuMillisTicks(os.Getpid()); err != nil || ticks < 0 {
		t.Errorf("tick clock: %.3f ms, %v", ticks, err)
	}
}

func TestParseVmHWM(t *testing.T) {
	kib, err := parseVmHWM(fixture(t, "proc_status.txt"))
	if err != nil || kib != 17640 {
		t.Errorf("captured status: VmHWM %d KiB, %v; want 17640", kib, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tgateway\nVmRSS:\t  100 kB\n")); err == nil {
		t.Error("status without VmHWM accepted")
	}
	if _, err := parseVmHWM([]byte("VmHWM:\t  100 MB\n")); err == nil {
		t.Error("VmHWM in an unexpected unit accepted")
	}
}

func TestParseMemStats(t *testing.T) {
	ms, err := parseMemStats(fixture(t, "heap_debug1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := memStats{Mallocs: 57302, TotalAlloc: 12156024, NumGC: 4}
	if ms != want {
		t.Errorf("captured heap dump: %+v, want %+v", ms, want)
	}
	if _, err := parseMemStats([]byte("heap profile: 1: 2 [3: 4] @ heap/1048576\n# Mallocs = 7\n")); err == nil {
		t.Error("dump without TotalAlloc and NumGC accepted")
	}
	if _, err := parseMemStats([]byte("# Mallocs = many\n# TotalAlloc = 1\n# NumGC = 1\n")); err == nil {
		t.Error("non-numeric Mallocs accepted")
	}
}

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(fixture(t, "gateway_metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"gateway_ok":                       1,
		"serve_cache_misses":               1,
		"serve_cache_hits":                 0,
		"rpc_client_search_stats_requests": 1,
		"rpc_client_info_requests":         3,
		"rpc_client_bytes_read":            395,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	// A counter the process never registered reads as zero: the disk
	// tier's block counters only exist once a segment spilled.
	if m["disk_block_cache_misses"] != 0 {
		t.Error("absent counter is not zero")
	}
	if _, err := parseMetrics([]byte("serve_queries\n")); err == nil {
		t.Error("line without a value accepted")
	}
	if _, err := parseMetrics([]byte("serve_queries 1.5\n")); err == nil {
		t.Error("non-integer value accepted")
	}
}

func TestParseGatewayStats(t *testing.T) {
	deg, err := parseGatewayStats(fixture(t, "gateway_stats.json"))
	if err != nil || deg != (degraded{}) {
		t.Errorf("captured healthy stats: %+v, %v", deg, err)
	}
	deg, err = parseGatewayStats([]byte(`{"stats":{"serve":{"PartialResults":3,"ShardErrors":4,"Queries":9}},"metrics":[]}`))
	if err != nil || deg.PartialResults != 3 || deg.ShardErrors != 4 {
		t.Errorf("degraded stats: %+v, %v", deg, err)
	}
	if _, err := parseGatewayStats([]byte(`{"stats":{"gateway":{}},"metrics":[]}`)); err == nil {
		t.Error("stats without a serve section accepted")
	}
	if _, err := parseGatewayStats([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestCompactorBusy(t *testing.T) {
	// The compactor's goroutine as a shardd's goroutine dump shows it:
	// parked in compactLoop's select, and inside a merge.
	idle := "goroutine profile: total 8\n" +
		"1 @ 0x4764ce 0x453b37 0x6b35db 0x47d7a1\n" +
		"#\t0x6b35da\trepro/internal/ingest.(*Index).compactLoop+0x9a\t/src/internal/ingest/ingest.go:403\n"
	busy := "goroutine profile: total 8\n" +
		"1 @ 0x6b3a11 0x6b35f0 0x47d7a1\n" +
		"#\t0x6b3a10\trepro/internal/ingest.(*Index).compactOnce+0x1f0\t/src/internal/ingest/ingest.go:468\n" +
		"#\t0x6b35ef\trepro/internal/ingest.(*Index).compactLoop+0xaf\t/src/internal/ingest/ingest.go:405\n"
	spilling := "1 @ 0x6b4a11 0x6b35f0 0x47d7a1\n" +
		"#\t0x6b4a10\trepro/internal/ingest.(*Index).spillOnce+0x90\t/src/internal/ingest/spill.go:77\n"
	if compactorBusy([]byte(idle)) {
		t.Error("a parked compactor reads as busy")
	}
	if !compactorBusy([]byte(busy)) || !compactorBusy([]byte(spilling)) {
		t.Error("a running merge or spill reads as idle")
	}
}
