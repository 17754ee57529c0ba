package fault

import (
	"bytes"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"
)

// CheckLeaks records the process's goroutines (by id) and open file
// descriptors (each as its number and what it points at, read from
// /proc/self/fd; none are recorded where it does not exist) and
// registers a cleanup on t that requires, within a second of teardown,
// that no goroutine and no descriptor exists that was not there before.
// It compares identities, not counts, so a goroutine or descriptor of
// an earlier test that goes away across the teardown cannot hide one
// this test left behind. Cleanups run last-in first-out, so call it
// first: by the time it checks, the test's deferred calls and every
// cleanup registered after it have run. Before each look it closes
// http.DefaultClient's idle keep-alive connections (pooling, not leaks)
// and runs a GC, so finalizers of unreachable files can run.
func CheckLeaks(t testing.TB) {
	t.Helper()
	warmPoller()
	goroutines, fds := goroutineIDs(), openFDs()
	t.Cleanup(func() {
		deadline := time.Now().Add(time.Second)
		for {
			http.DefaultClient.CloseIdleConnections()
			runtime.GC()
			g, f := added(goroutineIDs(), goroutines), added(openFDs(), fds)
			if len(g) == 0 && len(f) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("a second after teardown: goroutines not there before %v, open fds not there before %v\n%s",
					g, f, stacks())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// added lists, sorted, the members of now that before lacks.
func added(now, before map[string]bool) []string {
	var out []string
	for k := range now {
		if !before[k] {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// warmPoller makes the runtime open its network poller, whose
// descriptors stay open for the life of the process, so the first test
// to touch the network does not count them as its own.
func warmPoller() {
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
}

// stacks is runtime.Stack of every goroutine, whatever its length.
func stacks() []byte {
	buf := make([]byte, 64<<10)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// goroutineIDs is the set of the process's goroutine ids, read from
// the "goroutine <id> [" header of each stack. The runtime never reuses
// an id.
func goroutineIDs() map[string]bool {
	ids := map[string]bool{}
	for _, line := range bytes.Split(stacks(), []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("goroutine ")); ok {
			id, _, _ := bytes.Cut(rest, []byte(" "))
			ids[string(id)] = true
		}
	}
	return ids
}

// openFDs is the set of the process's open file descriptors as
// "<fd> -> <target>", empty where /proc/self/fd does not exist. The
// descriptor that reads the directory is left out.
func openFDs() map[string]bool {
	fds := map[string]bool{}
	d, err := os.Open("/proc/self/fd")
	if err != nil {
		return fds
	}
	defer d.Close()
	self := strconv.FormatUint(uint64(d.Fd()), 10)
	names, err := d.Readdirnames(-1)
	if err != nil {
		return fds
	}
	for _, n := range names {
		if n == self {
			continue
		}
		if target, err := os.Readlink("/proc/self/fd/" + n); err == nil {
			fds[n+" -> "+target] = true
		}
	}
	return fds
}
