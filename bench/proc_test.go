package main

import (
	"strings"
	"testing"
)

func TestLogTail(t *testing.T) {
	var quiet logBuffer
	quiet.Write([]byte("banner\nline 1\nline 2\nline 3\n"))
	if got := quiet.tail(2); got != "line 2\nline 3" {
		t.Errorf("tail of a quiet log = %q", got)
	}
	// A crash report is printed from its first line: the cause sits
	// above the goroutine dump, not at the end of the log.
	var crashed logBuffer
	crashed.Write([]byte("banner\nfatal error: fault\n[signal SIGBUS: bus error]\n\ngoroutine 7 [running]:\n" +
		strings.Repeat("frame\n", 500)))
	got := crashed.tail(4)
	if !strings.HasPrefix(got, "fatal error: fault\n[signal SIGBUS") || strings.Count(got, "\n") != 3 {
		t.Errorf("tail of a crashed log = %q", got)
	}
}
