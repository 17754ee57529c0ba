package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// Layers are measured from outside: CPU and peak RSS from /proc, heap
// accounting from the runtime.MemStats dump pprof appends to
// /debug/pprof/heap?debug=1, counters from the admin plane's /metrics
// and /stats. Nothing in the programs changes for the benchmark.

// clkTck is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux ABI Go supports; there is no cgo-free sysconf.
const clkTck = 100

// parseProcStat extracts utime+stime, in clock ticks, from the contents
// of /proc/<pid>/stat. The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseProcStat(b []byte) (ticks uint64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no ')' closing the command name")
	}
	fields := bytes.Fields(b[i+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(string(fields[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(string(fields[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// parseSchedstat extracts the on-CPU time, in nanoseconds, from the
// contents of /proc/<pid>/task/<tid>/schedstat ("run wait slices").
func parseSchedstat(b []byte) (uint64, error) {
	f := bytes.Fields(b)
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields, want 3", len(f))
	}
	return strconv.ParseUint(string(f[0]), 10, 64)
}

// cpuMillis reads a live process's consumed CPU time in milliseconds:
// the sum of its threads' scheduler run times, which has nanosecond
// resolution where /proc/<pid>/stat counts 10 ms ticks — a round of a
// few hundred ticks would otherwise report the same few values run
// after run. Kernels built without scheduler statistics fall back to
// the tick counters.
func cpuMillis(pid int) (float64, error) {
	if !isFile(fmt.Sprintf("/proc/%d/schedstat", pid)) {
		return cpuMillisTicks(pid)
	}
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var ns uint64
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // a thread that exited since the directory was listed
		}
		run, err := parseSchedstat(b)
		if err != nil {
			return 0, err
		}
		ns += run
	}
	return float64(ns) / 1e6, nil
}

func cpuMillisTicks(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseProcStat(b)
	return float64(ticks) * 1000 / clkTck, err
}

// parseVmHWM extracts the peak resident set size, in KiB, from the
// contents of /proc/<pid>/status.
func parseVmHWM(b []byte) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", sc.Text())
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmHWM line")
}

func peakRSSKiB(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

// memStats is the subset of runtime.MemStats the benchmark reads.
type memStats struct {
	Mallocs    uint64
	TotalAlloc uint64
	NumGC      uint64
}

// parseMemStats reads the "# Name = value" runtime.MemStats block that
// pprof's text heap profile ends with.
func parseMemStats(b []byte) (memStats, error) {
	var ms memStats
	want := map[string]*uint64{"Mallocs": &ms.Mallocs, "TotalAlloc": &ms.TotalAlloc, "NumGC": &ms.NumGC}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 4<<20) // PauseNs is one long line
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "# ")
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, " = ")
		dst := want[name]
		if !ok || dst == nil {
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return ms, fmt.Errorf("memstats: %s: %w", name, err)
		}
		*dst = v
		found++
	}
	if err := sc.Err(); err != nil {
		return ms, fmt.Errorf("memstats: %w", err)
	}
	if found != len(want) {
		return ms, fmt.Errorf("memstats: found %d of %d fields", found, len(want))
	}
	return ms, nil
}

// parseMetrics reads the admin plane's flat "name value" dump.
func parseMetrics(b []byte) (map[string]int64, error) {
	out := make(map[string]int64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %s: %w", name, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// degraded is the part of the gateway's /stats the answer check needs:
// a search answered with a shard missing is a wrong answer even when
// its status is 200.
type degraded struct {
	PartialResults int64
	ShardErrors    int64
}

// parseGatewayStats reads serve's degradation counters out of the
// gateway's /stats JSON.
func parseGatewayStats(b []byte) (degraded, error) {
	var payload struct {
		Stats struct {
			Serve *degraded `json:"serve"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(b, &payload); err != nil {
		return degraded{}, fmt.Errorf("gateway stats: %w", err)
	}
	if payload.Stats.Serve == nil {
		return degraded{}, errors.New("gateway stats: no stats.serve section")
	}
	return *payload.Stats.Serve, nil
}

var adminClient = &http.Client{Timeout: 10 * time.Second}

// adminGet fetches one admin-plane path.
func adminGet(addr, path string) ([]byte, error) {
	resp, err := adminClient.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s%s: %w", addr, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: status %d", addr, path, resp.StatusCode)
	}
	return body, nil
}

// procSample is everything scraped from one child at one instant.
type procSample struct {
	mem     memStats
	metrics map[string]int64
}

// sampleProc scrapes a child's heap accounting and counters. The heap
// dump stops the world for a moment, so samples are only taken outside
// measured rounds.
func sampleProc(admin string) (procSample, error) {
	var s procSample
	heap, err := adminGet(admin, "/debug/pprof/heap?debug=1")
	if err != nil {
		return s, err
	}
	if s.mem, err = parseMemStats(heap); err != nil {
		return s, err
	}
	text, err := adminGet(admin, "/metrics")
	if err != nil {
		return s, err
	}
	s.metrics, err = parseMetrics(text)
	return s, err
}
