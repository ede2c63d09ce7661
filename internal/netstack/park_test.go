package netstack_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/safering"
	"confio/internal/simnet"
	"confio/internal/tcp"
)

// parkSpy sits between the stack and a safe-ring guest exactly as the
// benchmark's interposer does — it implements nic.BatchGuest and nothing
// else, and hands errors through — and reports when the stack parks and
// when it next dequeues a frame (dropping a report while one is unread),
// and which wake each Park registered. With hold set, a Park that found
// the ring idle keeps its caller inside it — the wake registered, the
// caller not yet blocked on it — until the test sends on hold.
type parkSpy struct {
	nic.BatchGuest
	parked chan struct{} // a Park that found the ring idle: its caller blocks next
	got    chan time.Time
	hold   chan struct{}

	mu    sync.Mutex
	wakes []chan struct{} // every Park's wake, in order
}

func (g *parkSpy) RecvBatch(out []nic.Frame) (int, error) {
	n, err := g.BatchGuest.RecvBatch(out)
	if n > 0 {
		select {
		case g.got <- time.Now():
		default:
		}
	}
	if p, ok := err.(nic.Parker); ok {
		return n, spiedEmpty{p, g}
	}
	return n, err
}

type spiedEmpty struct {
	nic.Parker
	g *parkSpy
}

func (spiedEmpty) Error() string        { return nic.ErrEmpty.Error() }
func (spiedEmpty) Is(target error) bool { return target == nic.ErrEmpty }

func (e spiedEmpty) Park(wake chan struct{}) bool {
	e.g.mu.Lock()
	e.g.wakes = append(e.g.wakes, wake)
	e.g.mu.Unlock()
	ready := e.Parker.Park(wake)
	if !ready {
		select {
		case e.g.parked <- struct{}{}:
		default:
		}
		if e.g.hold != nil {
			<-e.g.hold
		}
	}
	return ready
}

// registered returns the wakes Park has registered so far.
func (g *parkSpy) registered() []chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]chan struct{}(nil), g.wakes...)
}

// TestIndexStoreWakesParkedStack: an idle stack parks on the RXUsed
// producer index of a polling-mode device — the handle reaching it in the
// empty result, through a wrapper that is a nic.BatchGuest and nothing
// more — and the host's index store is what wakes it: the store puts a
// token on the very wake the stack registered. The spy holds the stack's
// loop inside its park while the test looks, so no timer and no other
// poll can stand in for the store. Before the loop starts, a park whose
// re-check finds a frame waiting reports it instead of blocking.
func TestIndexStoreWakesParkedStack(t *testing.T) {
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := safering.NewHostPort(ep.Shared())
	guest := ep.NIC().(nic.BatchGuest)
	spy := &parkSpy{BatchGuest: guest, parked: make(chan struct{}, 1), got: make(chan time.Time, 1), hold: make(chan struct{})}
	s := netstack.New(spy, ipA)
	stray := make([]byte, 64) // not for this station: dequeued, counted, dropped

	_, err = guest.RecvBatch(make([]nic.Frame, 1))
	p, ok := err.(nic.Parker)
	if !ok {
		t.Fatalf("empty poll returned %v (%T): want a nic.Parker", err, err)
	}
	if err := hp.Push(stray); err != nil {
		t.Fatal(err)
	}
	if !p.Park(make(chan struct{}, 1)) {
		t.Fatal("a park with a frame waiting reported an idle ring: the stack would block on it")
	}
	p.Unpark()

	s.Start()
	defer s.Close()
	defer close(spy.hold) // runs first: a loop held in its park must be let go before Close
	select {
	case <-spy.got: // the frame the re-check found
	case <-time.After(5 * time.Second):
		t.Fatal("stack never dequeued the waiting frame")
	}
	const trials = 50
	for i := 0; i < trials; i++ {
		select {
		case <-spy.parked:
		case <-time.After(5 * time.Second):
			t.Fatalf("trial %d: stack never parked", i)
		}
		wakes := spy.registered()
		wake := wakes[len(wakes)-1]
		if len(wake) != 0 {
			t.Fatalf("trial %d: a token waits on the stack's wake before the host stored anything", i)
		}
		if err := hp.Push(stray); err != nil {
			t.Fatal(err)
		}
		if len(wake) != 1 {
			t.Fatalf("trial %d: the host's index store left no token on the wake the stack registered", i)
		}
		spy.hold <- struct{}{}
		select {
		case <-spy.got:
		case <-time.After(5 * time.Second):
			t.Fatalf("trial %d: stack never dequeued the frame", i)
		}
	}
	select {
	case <-spy.parked: // every frame is counted once the stack is idle again
	case <-time.After(5 * time.Second):
		t.Fatal("stack never parked after the last frame")
	}
	if in := s.Stats().FramesIn; in != trials+1 {
		t.Fatalf("FramesIn = %d, want %d", in, trials+1)
	}
	if n := ep.Shared().RXBell; n != nil {
		t.Fatal("polling-mode device grew a doorbell")
	}
}

// TestStackNeverArmsRXBell: on a notifying device the stack parks on the
// index like everywhere else and leaves the RX event index alone, so the
// host keeps eliding its (charged) doorbell exactly as before.
func TestStackNeverArmsRXBell(t *testing.T) {
	cfg := safering.DefaultConfig()
	cfg.Notify, cfg.EventIdx = true, true
	ep, err := safering.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := safering.NewHostPort(ep.Shared())
	spy := &parkSpy{BatchGuest: ep.NIC().(nic.BatchGuest), parked: make(chan struct{}, 1), got: make(chan time.Time, 1)}
	s := netstack.New(spy, ipA)
	s.Start()
	defer s.Close()
	evt := ep.Shared().RXUsed.Indexes().LoadEvent()
	for i := 0; i < 8; i++ {
		<-spy.parked
		if err := hp.Push(make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		<-spy.got
	}
	<-spy.parked
	if got := ep.Shared().RXUsed.Indexes().LoadEvent(); got != evt {
		t.Fatalf("stack moved the RX event index from %d to %d: it must never arm RXBell", evt, got)
	}
}

// TestIdleStackDoesNotTick: with no connection there is no deadline, so
// an idle stack wakes on its bounded wait and goes back to sleep without
// ticking TCP. Tick reads the endpoint's clock exactly once per call and
// nothing else does on a stack without connections.
func TestIdleStackDoesNotTick(t *testing.T) {
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := netstack.New(ep.NIC(), ipA)
	var clockReads atomic.Int64
	s.TCP = tcp.NewEndpoint(ipA, 1500, 0, func(tcp.Batch) {}, func() time.Time {
		clockReads.Add(1)
		return time.Now()
	}, nil)
	s.Start()
	defer s.Close()
	time.Sleep(100 * time.Millisecond)
	if n := clockReads.Load(); n != 0 {
		t.Fatalf("idle stack ticked TCP %d times in 100 ms, want 0", n)
	}
}

// TestRetransmitFiresWhileParked: the application arms the
// retransmission timer from its own goroutine while the loop is parked
// with no deadline to sleep towards, and then the peer goes silent, so no
// frame ever wakes the loop. The bounded wait must pick the new deadline
// up: the retransmission goes out within RTO plus the bound (plus
// scheduling slack), not never.
func TestRetransmitFiresWhileParked(t *testing.T) {
	sa, sb, ports := twoStacks(t, transports()[0])
	l, err := sb.Listen(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := sa.Dial(ipB, 9, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := l.AcceptTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)                 // handshake ACKs drain; both loops park
	ports[1].Impair(simnet.Impairment{DropEvery: 1}) // the peer hears nothing from now on
	before := sa.TCP.Stats().Retransmits
	sent := time.Now()
	if _, err := c.Write([]byte("into the void")); err != nil {
		t.Fatal(err)
	}
	const rto = 50 * time.Millisecond // tcp's initial RTO; RTT samples here only shrink it
	deadline := sent.Add(rto + nic.WaitBound + 250*time.Millisecond)
	for sa.TCP.Stats().Retransmits == before {
		if time.Now().After(deadline) {
			t.Fatalf("no retransmission %v after the write (RTO %v, wait bound %v)", time.Since(sent), rto, nic.WaitBound)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("retransmitted %v after the write", time.Since(sent))
}
