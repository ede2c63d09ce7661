package gateway

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

// TestNodeRunsOneHostPoller: the node's five device queues — the
// gateway's four and the client's one — are served by one host poller,
// which Close ends.
func TestNodeRunsOneHostPoller(t *testing.T) {
	before := hostPollers(t)
	n, err := NewNode(DefaultNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n.cfg.Queues != 4 {
		t.Fatalf("node has %d gateway queues, want 4", n.cfg.Queues)
	}
	if got := hostPollers(t) - before; got != 1 {
		t.Fatalf("%d host pollers, want 1", got)
	}
	n.Close()
	if got := hostPollers(t) - before; got != 0 {
		t.Fatalf("%d host pollers left after Close", got)
	}
}
