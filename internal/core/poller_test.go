package core

import (
	"bytes"
	"regexp"
	"runtime/pprof"
	"strconv"
	"testing"
)

// hostPollers counts the live goroutines labelled as nic host pollers.
func hostPollers(t *testing.T) int {
	t.Helper()
	var b bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, m := range regexp.MustCompile(`(?m)^(\d+) @.*\n# labels: \{[^}]*"nic":"poller"`).FindAllStringSubmatch(b.String(), -1) {
		c, _ := strconv.Atoi(m[1])
		n += c
	}
	return n
}

// TestWorldRunsOneHostPoller: a world's two pumps, the client's and the
// server's, and a multi-queue world's as well, are served by one host
// poller, which Close ends.
func TestWorldRunsOneHostPoller(t *testing.T) {
	for _, queues := range []int{1, 4} {
		before := hostPollers(t)
		w, err := NewWorldQueues(DualBoundary, queues)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.RunEcho(1, 64); err != nil {
			t.Fatal(err)
		}
		if n := hostPollers(t) - before; n != 1 {
			t.Fatalf("%d queues: %d host pollers, want 1", queues, n)
		}
		w.Close()
		if n := hostPollers(t) - before; n != 0 {
			t.Fatalf("%d queues: %d host pollers left after Close", queues, n)
		}
	}
}
