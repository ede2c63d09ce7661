package nic

import (
	"bytes"
	"errors"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"confio/internal/simnet"
)

// pollerGoroutines counts the live goroutines labelled as host pollers.
func pollerGoroutines(t *testing.T) int {
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

// pushedAtLeast waits until h has taken n frames.
func pushedAtLeast(t *testing.T, h *queueHost, n int) {
	t.Helper()
	await(t, "the pushes", func() bool { got, _ := h.counts(); return got >= n })
}

// TestOnePollerPerNetwork: the pumps on one switch share one poller,
// which serves each of their queues; a pump on another switch gets a
// poller of its own.
func TestOnePollerPerNetwork(t *testing.T) {
	before := pollerGoroutines(t)
	netA, netB := simnet.New(), simnet.New()
	hA1, hA2, hB := &queueHost{}, &queueHost{}, &queueHost{}
	pA1, pA2, pB := StartPump(hA1, netA.NewPort()), StartPump(hA2, netA.NewPort()), StartPump(hB, netB.NewPort())
	defer pA1.Stop()
	defer pA2.Stop()
	defer pB.Stop()
	if pA1.po != pA2.po || pA1.po == pB.po {
		t.Fatal("pumps on one network run on different pollers, or two networks share one")
	}
	if n := pollerGoroutines(t) - before; n != 2 {
		t.Fatalf("%d poller goroutines for two networks, want 2", n)
	}
	peerA, peerB := netA.NewPort(), netB.NewPort()
	if err := peerA.Send(frameFor(t, 0, 1, 0xA0)); err != nil {
		t.Fatal(err)
	}
	if err := peerB.Send(frameFor(t, 0, 1, 0xB0)); err != nil {
		t.Fatal(err)
	}
	pushedAtLeast(t, hA1, 1)
	pushedAtLeast(t, hA2, 1)
	pushedAtLeast(t, hB, 1)
}

// TestStopLeavesOtherPumpsServed: a stopped pump's backend sees nothing
// more while its neighbour on the same poller keeps both directions
// moving, and the last Stop ends the poller.
func TestStopLeavesOtherPumpsServed(t *testing.T) {
	before := runtime.NumGoroutine()
	net := simnet.New()
	h1, h2 := &queueHost{}, &queueHost{}
	p1, p2 := StartPump(h1, net.NewPort()), StartPump(h2, net.NewPort())
	peer := net.NewPort()
	p1.Stop()
	p1.Stop() // idempotent
	if p1.Running() != 0 || p2.Running() != 1 {
		t.Fatalf("after one Stop: %d and %d queues served, want 0 and 1", p1.Running(), p2.Running())
	}
	if err := peer.Send(frameFor(t, 0, 1, 0xA0)); err != nil {
		t.Fatal(err)
	}
	pushedAtLeast(t, h2, 1)
	h2.mu.Lock()
	h2.tx = append(h2.tx, frameFor(t, 0, 1, 0xA2))
	h2.mu.Unlock()
	await(t, "the transmit", func() bool { f, ok := peer.Recv(); return ok && f[14] == 0xA2 })
	if n, _ := h1.counts(); n != 0 {
		t.Fatalf("the stopped pump's backend took %d frames", n)
	}
	p2.Stop()
	// This poller, not the process's goroutine count, is what must end:
	// an earlier test's goroutine exiting meanwhile would hide a leak in
	// the count alone.
	pollersMu.Lock()
	_, registered := pollers[net]
	pollersMu.Unlock()
	if registered || p2.po.d.Running() != 0 {
		t.Fatalf("after the last Stop: registered %v, %d poller loops running", registered, p2.po.d.Running())
	}
	await(t, "the poller to end", func() bool { return runtime.NumGoroutine() <= before })
}

// dyingHost is a queue whose backend fails once dead is set.
type dyingHost struct {
	queueHost
	dead atomic.Bool
}

var errDevice = errors.New("device died")

func (h *dyingHost) PopBatch(bufs [][]byte, lens []int) (int, error) {
	if h.dead.Load() {
		return 0, errDevice
	}
	return h.queueHost.PopBatch(bufs, lens)
}

// TestTerminalErrorRetiresItsQueue: a queue's terminal error retires that
// queue alone, keeps the error for its pump, and leaves its sibling queue
// and the other pumps on the poller served.
func TestTerminalErrorRetiresItsQueue(t *testing.T) {
	net := simnet.New()
	dying, sibling, other := &dyingHost{}, &queueHost{}, &queueHost{}
	p1 := StartMultiPump([]BatchHost{sibling, dying}, net.NewPort())
	p2 := StartPump(other, net.NewPort())
	defer p1.Stop()
	defer p2.Stop()
	dying.dead.Store(true)
	await(t, "the retirement", func() bool { return p1.Running() == 1 })
	if !errors.Is(p1.Err(), errDevice) || p2.Err() != nil || p2.Running() != 1 {
		t.Fatalf("Err() = %v and %v, %d queues left on the other pump", p1.Err(), p2.Err(), p2.Running())
	}
	peer := net.NewPort()
	sibling.mu.Lock()
	sibling.tx = append(sibling.tx, frameFor(t, 0, 1, 0xA1))
	sibling.mu.Unlock()
	await(t, "the sibling's transmit", func() bool { f, ok := peer.Recv(); return ok && f[14] == 0xA1 })
	if err := peer.Send(frameFor(t, 0, 1, 0xA0)); err != nil {
		t.Fatal(err)
	}
	pushedAtLeast(t, other, 1)
}

// armHost is an always-idle queue with an idle wake.
type armHost struct {
	queueHost
	wake chan struct{}
}

func (h *armHost) ArmNotify() bool             { return false }
func (h *armHost) SuppressNotify()             {}
func (h *armHost) NotifyChan() <-chan struct{} { return h.wake }

// TestIdleCycleAllocatesNothing: a full idle cycle of the poller — the
// spin's steps, arming every queue, the wait on the one wake, and the
// unpark — allocates nothing.
func TestIdleCycleAllocatesNothing(t *testing.T) {
	net := simnet.New()
	hosts := []BatchHost{&armHost{wake: make(chan struct{}, 1)}, &armHost{wake: make(chan struct{}, 1)}}
	p := new(Pump)
	po := &poller{wake: make(chan struct{}, 1)}
	for _, h := range hosts {
		po.ws = append(po.ws, newWorker(h, net.NewPort(), p))
	}
	po.ws[0].rx = newSteering(hosts)
	l := po.loop()
	var w Waiter
	stop := make(chan struct{})
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i <= l.Spin; i++ {
			l.Step()
		}
		l.Park()
		wake := l.Wake()
		poke(po.wake)
		w.Wait(stop, wake, time.Hour)
		l.Unpark()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per idle cycle, want 0", allocs)
	}
}
