package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Step budgets. Every blocking step of the harness runs under one of
// these, so a wedged child turns into an error with its log tail, never
// into a hung benchmark.
const (
	buildTimeout  = 10 * time.Minute
	bannerTimeout = 30 * time.Second
	// quiesceTimeout bounds the wait for a shardd's background compactor
	// to drain a preload (about a second for 80k posts).
	quiesceTimeout = 60 * time.Second
	// drainTimeout is what a child gets between SIGTERM and SIGKILL; the
	// programs' own -grace budget (5s) sits inside it.
	drainTimeout = 8 * time.Second
)

// findRepoRoot walks up from the working directory to the checkout
// root — the directory holding both go.mod and cmd/shardd. `go -C bench
// run .` starts the harness inside bench/, a developer may start it
// from anywhere below the root.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "go.mod")) && isDir(filepath.Join(dir, "cmd", "shardd")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no checkout root (go.mod + cmd/shardd) above the working directory")
		}
		dir = parent
	}
}

func isFile(p string) bool { st, err := os.Stat(p); return err == nil && st.Mode().IsRegular() }
func isDir(p string) bool  { st, err := os.Stat(p); return err == nil && st.IsDir() }

// buildBinaries compiles cmd/gateway and cmd/shardd from the checkout
// into outDir. The Go build cache makes every build after the first a
// sub-second no-op, so the harness always builds: a stale binary can
// never be measured.
func buildBinaries(root, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), buildTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", outDir+string(os.PathSeparator), "./cmd/gateway", "./cmd/shardd")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("bench: go build ./cmd/gateway ./cmd/shardd: %w\n%s", err, out)
	}
	return nil
}

// logBuffer collects a child's combined output: the banners carrying
// its bound addresses are parsed out of it, and its tail is what a
// failed run prints.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// crashHeads are how the Go runtime opens the report of a dying
// process; what follows such a line says why it died.
var crashHeads = []string{"panic:", "fatal error:", "unexpected fault address", "SIG"}

// tail returns the part of the log worth printing with a failure: from
// the first crash report on when there is one (the cause sits above
// pages of goroutine dumps), otherwise the last lines; n lines at most.
func (l *logBuffer) tail(n int) string {
	lines := strings.Split(strings.TrimRight(l.String(), "\n"), "\n")
	for i, line := range lines {
		for _, head := range crashHeads {
			if strings.HasPrefix(line, head) {
				return strings.Join(lines[i:min(i+n, len(lines))], "\n")
			}
		}
	}
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// child is one supervised process in its own process group.
type child struct {
	name string
	cmd  *exec.Cmd
	log  *logBuffer
	// done is closed once Wait returned; waitErr is valid after that.
	done    chan struct{}
	waitErr error
}

// startChild spawns bin with args in a fresh process group, so that a
// group kill reaches anything it might fork and a terminal ^C does not
// race the harness's own shutdown path.
func startChild(name, bin string, args ...string) (*child, error) {
	c := &child{name: name, log: &logBuffer{}, done: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stdout = c.log
	c.cmd.Stderr = c.log
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start %s: %w", name, err)
	}
	go func() {
		c.waitErr = c.cmd.Wait()
		close(c.done)
	}()
	spawnedMu.Lock()
	spawned = append(spawned, c)
	spawnedMu.Unlock()
	return c, nil
}

// spawned remembers every child ever started, so that the signal and
// exit paths can kill whatever is still running without knowing which
// deployment owns it.
var (
	spawnedMu sync.Mutex
	spawned   []*child
)

// killAllChildren kills every child that is still running and waits
// for it.
func killAllChildren() {
	spawnedMu.Lock()
	all := append([]*child(nil), spawned...)
	spawnedMu.Unlock()
	for _, c := range all {
		c.kill()
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// exited reports whether the process has ended.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// failure formats an error about this child with its log tail.
func (c *child) failure(format string, args ...any) error {
	return fmt.Errorf("bench: %s (pid %d): %s\n--- %s log tail ---\n%s",
		c.name, c.pid(), fmt.Sprintf(format, args...), c.name, c.log.tail(20))
}

// awaitBanner polls the child's log until re matches, the child exits,
// or the banner budget runs out, and returns the first submatch.
func (c *child) awaitBanner(re *regexp.Regexp) (string, error) {
	deadline := time.Now().Add(bannerTimeout)
	for {
		if m := re.FindStringSubmatch(c.log.String()); m != nil {
			return m[1], nil
		}
		if c.exited() {
			return "", c.failure("exited before printing %q: %v", re, c.waitErr)
		}
		if time.Now().After(deadline) {
			return "", c.failure("no banner %q within %v", re, bannerTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// drain asks the child to shut down gracefully and verifies that it
// did: SIGTERM, exit code 0 within the drain budget, and the program's
// own "drained, bye" line. Anything else kills the group and is an
// error.
func (c *child) drain() error {
	if c.exited() {
		return c.failure("exited on its own before shutdown: %v", c.waitErr)
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return c.failure("SIGTERM: %v", err)
	}
	select {
	case <-c.done:
	case <-time.After(drainTimeout):
		c.kill()
		return c.failure("did not exit within %v of SIGTERM", drainTimeout)
	}
	if c.waitErr != nil {
		return c.failure("exit after SIGTERM: %v", c.waitErr)
	}
	if !strings.Contains(c.log.String(), "drained, bye") {
		return c.failure("exited 0 without the drained banner")
	}
	return nil
}

// kill SIGKILLs the child's whole process group and waits for it — the
// unconditional exit path.
func (c *child) kill() {
	if !c.exited() {
		syscall.Kill(-c.pid(), syscall.SIGKILL)
	}
	<-c.done
}
