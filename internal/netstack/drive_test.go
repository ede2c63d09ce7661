package netstack_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/safering"
	"confio/internal/simnet"
	"confio/internal/tcp"
)

// drivenNet joins a client stack a to a server stack b over safe rings.
// a is never started: no loop goroutine polls it, so every frame a
// receives is dequeued by a goroutine blocked in tcp on it (a driven
// wait), and a's counters show it without timing anything. With spied,
// a's guest is a parkSpy, so each driven wait's park is visible.
type drivenNet struct {
	a, b *netstack.Stack
	spy  *parkSpy
	ep   *safering.Endpoint // a's device
	l    *tcp.Listener      // on b
}

const drivenPort = 7

func newDrivenNet(t *testing.T, spied bool) *drivenNet {
	t.Helper()
	net := simnet.New()
	mk := func(last byte) (*safering.Endpoint, nic.Host) {
		cfg := safering.DefaultConfig()
		cfg.MAC[5] = last
		ep, err := safering.New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ep, safering.NewHostPort(ep.Shared()).NIC()
	}
	epA, ha := mk(0xA)
	epB, hb := mk(0xB)
	pa, pb := nic.StartPump(ha, net.NewPort()), nic.StartPump(hb, net.NewPort())
	n := &drivenNet{
		spy: &parkSpy{BatchGuest: epA.NIC().(nic.BatchGuest), parked: make(chan struct{}, 1), got: make(chan time.Time, 1)},
		ep:  epA,
	}
	var ga nic.Guest = n.spy
	if !spied {
		ga = epA.NIC()
	}
	n.a = netstack.New(ga, ipA)
	n.b = netstack.New(epB.NIC(), ipB)
	n.b.Start()
	t.Cleanup(func() {
		n.a.Close()
		n.b.Close()
		pa.Stop()
		pb.Stop()
	})
	l, err := n.b.Listen(drivenPort, 8)
	if err != nil {
		t.Fatal(err)
	}
	n.l = l
	return n
}

// dial opens a connection from a to b and returns both ends. The dialer
// drives a through the handshake: ARP reply and SYN-ACK are dequeued by
// Dial's own wait. The client's reads get a generous deadline, so a
// stack nobody polls fails a test instead of hanging it.
func (n *drivenNet) dial(t *testing.T) (c, sc *tcp.Conn) {
	t.Helper()
	c, err := n.a.Dial(ipB, drivenPort, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if sc, err = n.l.AcceptTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c, sc
}

// awaitPark blocks until a driven wait on a parks: its caller is then
// blocked in tcp. Only waiters park a, which has no loop goroutine.
func (n *drivenNet) awaitPark(t *testing.T) {
	t.Helper()
	select {
	case <-n.spy.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("no driven wait parked")
	}
}

func drain(ch <-chan struct{}) {
	select {
	case <-ch:
	default:
	}
}

// TestDrivenReaderDequeuesItsOwnReply: the server's reply is sent before
// the client reads, and nothing but the client's Read polls the client
// stack, so the reply is in the client's buffer only if the blocked
// reader dequeued it itself — FramesIn counts it.
func TestDrivenReaderDequeuesItsOwnReply(t *testing.T) {
	n := newDrivenNet(t, true)
	c, sc := n.dial(t)
	got := make([]byte, 64)
	for i := 0; i < 20; i++ {
		msg := []byte(fmt.Sprintf("reply %02d from the server", i))
		before := n.a.Stats().FramesIn
		if _, err := sc.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, got[:len(msg)]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(msg)], msg) {
			t.Fatalf("round %d: read %q, want %q", i, got[:len(msg)], msg)
		}
		if n.a.Stats().FramesIn == before {
			t.Fatalf("round %d: reply read with no frame dequeued on the reader's stack", i)
		}
	}
}

// TestDrivenHandBack: while a goroutine waits in tcp it parks the queues
// on the waiters' wake, so the host's index store pokes the waiter; when
// the last waiter leaves, the loop goroutine's wake is registered again
// — so a frame nobody waits for pokes the loop (the wake
// TestIndexStoreWakesParkedStack times), not the waiters' wake nobody
// reads any more, where only the loop's bound would find it.
func TestDrivenHandBack(t *testing.T) {
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := safering.NewHostPort(ep.Shared())
	spy := &parkSpy{BatchGuest: ep.NIC().(nic.BatchGuest), parked: make(chan struct{}, 1), got: make(chan time.Time, 1)}
	s := netstack.New(spy, ipA)
	s.Start()
	defer s.Close()
	select {
	case <-spy.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("stack never parked")
	}
	loop := spy.registered()[0] // nothing but the loop goroutine has run

	// Nobody answers this dial: the dialer drives the stack until its
	// deadline, then leaves.
	if _, err := s.Dial(ipB, 9, 20*time.Millisecond); !errors.Is(err, tcp.ErrTimeout) {
		t.Fatalf("unanswered dial: %v, want tcp.ErrTimeout", err)
	}
	wakes := spy.registered()
	drove := 0
	for _, w := range wakes {
		if w != loop {
			drove++
		}
	}
	if drove == 0 {
		t.Fatal("the blocked dialer never parked the queues on the waiters' wake")
	}
	if wakes[len(wakes)-1] != loop {
		t.Fatalf("after the last waiter left, the queues stay parked on the waiters' wake (%d parks, %d of them the waiters')", len(wakes), drove)
	}

	drain(spy.parked)
	in := s.Stats().FramesIn
	t0 := time.Now()
	if err := hp.Push(make([]byte, 64)); err != nil { // not for this station: dequeued, counted, dropped
		t.Fatal(err)
	}
	select {
	case t1 := <-spy.got:
		t.Logf("frame nobody waits for dequeued %v after the index store (wait bound %v)", t1.Sub(t0), nic.WaitBound)
	case <-time.After(5 * time.Second):
		t.Fatal("frame nobody waits for never dequeued")
	}
	// The stack counts a frame after the dequeue the spy reported.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().FramesIn == in && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if got := s.Stats().FramesIn; got != in+1 {
		t.Fatalf("FramesIn = %d, want %d", got, in+1)
	}
}

// TestDrivenReadDeadline: a driven Read with nothing to read still ends
// on its deadline with tcp.ErrTimeout, and the connection reads normally
// afterwards.
func TestDrivenReadDeadline(t *testing.T) {
	n := newDrivenNet(t, true)
	c, sc := n.dial(t)
	buf := make([]byte, 16)
	c.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
	if _, err := c.Read(buf); !errors.Is(err, tcp.ErrTimeout) {
		t.Fatalf("Read past its deadline: %v, want tcp.ErrTimeout", err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := sc.Write([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, buf[:4]); err != nil || string(buf[:4]) != "late" {
		t.Fatalf("Read after the timeout: %q, %v", buf[:4], err)
	}
}

// TestDrivenCloseWakesReader: Close wakes a reader blocked in a driven
// wait with tcp.ErrClosed.
func TestDrivenCloseWakesReader(t *testing.T) {
	n := newDrivenNet(t, true)
	c, _ := n.dial(t)
	drain(n.spy.parked)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 16))
		errc <- err
	}()
	n.awaitPark(t)
	n.a.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, tcp.ErrClosed) {
			t.Fatalf("Read after Close: %v, want tcp.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a driven reader blocked")
	}
}

// TestDrivenFailDeadWakesReader: a host that corrupts the receive
// producer index kills the device on the driven reader's own next step;
// the reader wakes with the connection's error, the transport's.
func TestDrivenFailDeadWakesReader(t *testing.T) {
	n := newDrivenNet(t, true)
	c, _ := n.dial(t)
	drain(n.spy.parked)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 16))
		errc <- err
	}()
	n.awaitPark(t)
	n.ep.Shared().RXUsed.Indexes().StoreProd(uint64(n.ep.Config().Slots) * 4)
	select {
	case err := <-errc:
		if !errors.Is(err, nic.ErrClosed) {
			t.Fatalf("Read after the device died: %v, want an ErrClosed-class error", err)
		}
		if deg := n.a.Degraded(); !errors.Is(deg, nic.ErrClosed) {
			t.Fatalf("Degraded() = %v after the reader saw %v", deg, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fail-dead left a driven reader blocked")
	}
}

// TestDrivenTwoReaders: two connections with readers blocked on one
// stack at once, and no loop goroutine: whichever reader steps the stack
// dequeues both replies, and each reader still gets its own.
func TestDrivenTwoReaders(t *testing.T) {
	n := newDrivenNet(t, true)
	c1, s1 := n.dial(t)
	c2, s2 := n.dial(t)
	for i := 0; i < 50; i++ {
		errc := make(chan error, 2)
		read := func(c *tcp.Conn, want string) {
			got := make([]byte, len(want))
			_, err := io.ReadFull(c, got)
			if err == nil && string(got) != want {
				err = fmt.Errorf("read %q, want %q", got, want)
			}
			errc <- err
		}
		one, two := fmt.Sprintf("one %02d", i), fmt.Sprintf("two %02d", i)
		go read(c1, one)
		go read(c2, two)
		if i%2 == 0 {
			s1.Write([]byte(one))
			s2.Write([]byte(two))
		} else {
			s2.Write([]byte(two))
			s1.Write([]byte(one))
		}
		for k := 0; k < 2; k++ {
			select {
			case err := <-errc:
				if err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: a blocked reader never got its data", i)
			}
		}
	}
}

// TestDrivenWaitAllocsNothing: a driven wait — step, park, the pooled
// nic.Waiter's wait for the deadline, the hand-back — allocates nothing.
// (The spy allocates; the device under a here is the bare safe ring.)
func TestDrivenWaitAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled waiters at random under -race")
	}
	n := newDrivenNet(t, false)
	c, _ := n.dial(t)
	buf := make([]byte, 16)
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		c.SetReadDeadline(time.Now().Add(500 * time.Microsecond))
		_, err = c.Read(buf)
	})
	if !errors.Is(err, tcp.ErrTimeout) {
		t.Fatalf("Read with nothing to read: %v, want tcp.ErrTimeout", err)
	}
	if allocs != 0 {
		t.Fatalf("driven wait allocated %.1f times, want 0", allocs)
	}
}

// deafGuest is a safe-ring guest on a host whose index stores wake
// nobody: its empty result parks nothing.
type deafGuest struct{ nic.BatchGuest }

func (g deafGuest) RecvBatch(out []nic.Frame) (int, error) {
	n, err := g.BatchGuest.RecvBatch(out)
	if _, ok := err.(nic.Parker); ok {
		return n, deafEmpty{}
	}
	return n, err
}

type deafEmpty struct{}

func (deafEmpty) Error() string           { return nic.ErrEmpty.Error() }
func (deafEmpty) Is(target error) bool    { return target == nic.ErrEmpty }
func (deafEmpty) Park(chan struct{}) bool { return false }
func (deafEmpty) Unpark()                 {}

// TestDrivenLostWakeFallsToLoop: no wake ever reaches the client stack,
// and its reader waits with no deadline, so it has no timer of its own.
// It still gets its reply: while anyone waits, the loop goroutine steps
// every nic.WaitBound, and what it dequeues wakes the reader.
func TestDrivenLostWakeFallsToLoop(t *testing.T) {
	deaf := transport{"deaf", func(t *testing.T, last byte) (nic.Guest, nic.Host) {
		g, h := transports()[0].mk(t, last)
		if last == 0xA {
			return deafGuest{g.(nic.BatchGuest)}, h
		}
		return g, h
	}}
	sa, sb, _ := twoStacks(t, deaf)
	l, err := sb.Listen(drivenPort, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sa.Dial(ipB, drivenPort, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := l.AcceptTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got := make(chan error, 1)
		go func() {
			buf := make([]byte, 5)
			_, err := io.ReadFull(c, buf)
			if err == nil && string(buf) != "hello" {
				err = fmt.Errorf("read %q", buf)
			}
			got <- err
		}()
		if _, err := sc.Write([]byte("hello")); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: a reader with no deadline and no wake was never served", i)
		}
	}
}
