package netstack_test

import (
	"errors"
	"testing"
	"time"

	"confio/internal/ipv4"
	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/safering"
	"confio/internal/simnet"
)

// degradePair builds two safering-backed stacks and returns the client
// endpoint and pump so the test can play the malicious (or frozen) host
// against it.
func degradePair(t *testing.T) (*netstack.Stack, *netstack.Stack, *safering.Endpoint, *nic.Pump) {
	t.Helper()
	net := simnet.New()
	mk := func(last byte) (*safering.Endpoint, nic.Guest, nic.Host) {
		cfg := safering.DefaultConfig()
		cfg.MAC[5] = last
		ep, err := safering.New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ep, ep.NIC(), safering.NewHostPort(ep.Shared()).NIC()
	}
	epA, ga, ha := mk(0xA)
	_, gb, hb := mk(0xB)
	pa := nic.StartPump(ha, net.NewPort())
	pb := nic.StartPump(hb, net.NewPort())
	sa := netstack.New(ga, ipA)
	sb := netstack.New(gb, ipB)
	sa.Start()
	sb.Start()
	t.Cleanup(func() {
		sa.Close()
		sb.Close()
		pa.Stop()
		pb.Stop()
	})
	return sa, sb, epA, pa
}

// TestStackDegradesWhenTransportDies is graceful degradation end to end:
// the host kills the client's transport mid-connection. The blocked TCP
// reader must wake with an error (not hang), a SYN still waiting for its
// neighbour's ARP answer must be a counted dead drop, the stack must
// report the terminal transport error, and a new Dial must fail with it
// at once instead of waiting out its timeout.
func TestStackDegradesWhenTransportDies(t *testing.T) {
	sa, sb, epA, _ := degradePair(t)

	l, err := sb.Listen(8080, 4)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.AcceptTimeout(10 * time.Second)
			if err != nil {
				return
			}
			_ = c // hold the connection open; never write
		}
	}()
	c, err := sa.Dial(ipB, 8080, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	readErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 1024)
		_, err := c.Read(buf) // blocks: the server never sends
		readErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the reader block

	// A second dial, to a neighbour that never answers, leaves its SYN
	// behind the ARP request when the transport dies.
	unanswered := make(chan error, 1)
	asked := sa.Stats().ARPRequests
	go func() {
		_, err := sa.Dial(ipv4.Addr{10, 0, 0, 9}, 9, 10*time.Second)
		unanswered <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); sa.Stats().ARPRequests == asked; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second dial never asked for its neighbour")
		}
	}

	// The malicious host corrupts the receive producer index: the
	// transport fail-deads on the stack's next receive poll.
	epA.Shared().RXUsed.Indexes().StoreProd(uint64(epA.Config().Slots) * 4)

	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("blocked read returned nil after transport death")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked TCP read hung after transport death: degradation failed")
	}

	deadline := time.Now().Add(5 * time.Second)
	for sa.Degraded() == nil {
		if time.Now().After(deadline) {
			t.Fatal("stack never reported the terminal transport error")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(sa.Degraded(), nic.ErrClosed) {
		t.Fatalf("Degraded() = %v, want an ErrClosed-class error", sa.Degraded())
	}

	select {
	case err := <-unanswered:
		if !errors.Is(err, nic.ErrClosed) {
			t.Fatalf("the dial waiting for ARP returned %v, want the transport's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the dial waiting for ARP hung after transport death")
	}
	if st := sa.Stats(); st.DeadDrops == 0 || st.SendDrops < st.DeadDrops {
		t.Fatalf("SendDrops %d, DeadDrops %d: want the SYN behind ARP a dead drop, and dead drops a subset of send drops",
			st.SendDrops, st.DeadDrops)
	}

	// New TCP work fails fast instead of hanging.
	start := time.Now()
	_, err = sa.Dial(ipB, 8081, 2*time.Second)
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("dial through a degraded stack took %v, want it refused at once", took)
	}
	if !errors.Is(err, nic.ErrClosed) {
		t.Fatalf("dial through a degraded stack = %v, want an ErrClosed-class error", err)
	}
}

// TestStackDegradeReportsStallDistinctly: when the transport dies by
// watchdog (host stall), the stack-level error distinguishes the stall
// while still matching the generic ErrClosed teardown class.
func TestStackDegradeReportsStallDistinctly(t *testing.T) {
	sa, _, epA, pumpA := degradePair(t)
	wd := safering.NewWatchdog(safering.WatchdogConfig{StallAfter: 10 * time.Millisecond}, epA)
	wd.Start()
	t.Cleanup(wd.Stop)

	// The host freezes: its device model stops consuming the TX ring.
	pumpA.Stop()

	// Give the stack transmit work the frozen consumer index holds as a
	// real obligation for the watchdog to age: a SYN to an unresolvable
	// peer puts its ARP request on the ring.
	dialed := make(chan error, 1)
	go func() {
		_, err := sa.Dial(ipv4.Addr{10, 0, 0, 9}, 9, 10*time.Second)
		dialed <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for sa.Degraded() == nil {
		if time.Now().After(deadline) {
			t.Fatal("stack never degraded after host froze")
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-dialed; !errors.Is(err, nic.ErrStalled) {
		t.Fatalf("the pending dial returned %v, want the stall", err)
	}
	if !errors.Is(sa.Degraded(), nic.ErrClosed) {
		t.Fatalf("degraded error %v does not match ErrClosed", sa.Degraded())
	}
	if !errors.Is(sa.Degraded(), nic.ErrStalled) {
		t.Fatalf("degraded error %v does not distinguish the stall", sa.Degraded())
	}
}
