package fault

import (
	"net"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"
)

// CheckLeaks records the process's goroutine count and open file
// descriptors (/proc/self/fd; not counted where it does not exist) and
// registers a cleanup on t that requires both back at or below those
// levels within a second of teardown. Cleanups run last-in first-out,
// so call it first: by the time it checks, the test's deferred calls
// and every cleanup registered after it have run. Before each count it
// closes http.DefaultClient's idle keep-alive connections (pooling, not
// leaks) and runs a GC, so finalizers of unreachable files can run.
func CheckLeaks(t testing.TB) {
	t.Helper()
	warmPoller()
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	t.Cleanup(func() {
		deadline := time.Now().Add(time.Second)
		for {
			http.DefaultClient.CloseIdleConnections()
			runtime.GC()
			g, f := runtime.NumGoroutine(), openFDs()
			if g <= goroutines && f <= fds {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("a second after teardown: %d goroutines (%d before), %d open fds (%d before)\n%s",
					g, goroutines, f, fds, buf)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// warmPoller makes the runtime open its network poller, whose
// descriptors stay open for the life of the process, so the first test
// to touch the network does not count them as its own.
func warmPoller() {
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
}

// openFDs counts the process's open file descriptors, 0 where
// /proc/self/fd does not exist.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}
