package netstack_test

import (
	"testing"
	"time"

	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/safering"
	"confio/internal/simnet"
)

// TestEstablishedWriteZeroAlloc is the transmit path's allocation budget:
// on an established connection, Write of one MSS — into the socket ring,
// out as one segment encoded in a pooled frame buffer, IPv4 and Ethernet
// headers written in place, into the safe ring by SendBatch — allocates
// nothing. The wire is frozen first (pumps stopped, peer stack closed), so
// no acknowledgement, no delivery copy and no wake-up of a blocked reader
// is charged to the writer; the ten-segment initial window and the ring's
// free slots are what the measured Writes consume.
func TestEstablishedWriteZeroAlloc(t *testing.T) {
	net := simnet.New()
	mk := func(last byte) (nic.Guest, nic.Host) {
		cfg := safering.DefaultConfig()
		cfg.MAC[5] = last
		ep, err := safering.New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ep.NIC(), safering.NewHostPort(ep.Shared()).NIC()
	}
	ga, ha := mk(0xA)
	gb, hb := mk(0xB)
	pa, pb := nic.StartPump(ha, net.NewPort()), nic.StartPump(hb, net.NewPort())
	sa, sb := netstack.New(ga, ipA), netstack.New(gb, ipB)
	sa.Start()
	sb.Start()
	defer sa.Close()
	defer sb.Close()
	defer pa.Stop()
	defer pb.Stop()

	l, err := sb.Listen(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sa.Dial(ipB, 7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AcceptTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// One acknowledged write warms what a connection allocates once: the
	// socket ring and the endpoint's frame buffers and batch slices.
	seg := make([]byte, 1460)
	if _, err := c.Write(seg); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); c.CongestionWindow() <= 10*1460; {
		if time.Now().After(deadline) {
			t.Fatal("the warm-up write was never acknowledged")
		}
		time.Sleep(time.Millisecond)
	}
	pa.Stop()
	pb.Stop()
	sb.Close()

	const runs = 8 // plus AllocsPerRun's warm-up call: inside the initial window
	before := sa.Stats().FramesOut
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := c.Write(seg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.2f allocs per one-MSS Write on an established connection, want 0", allocs)
	}
	if out := sa.Stats().FramesOut - before; out != runs+1 {
		t.Fatalf("%d frames left the stack for %d Writes: the measured path did not reach SendBatch every time", out, runs+1)
	}
}

// TestUDPSendToAllocBudget is the datagram path's allocation budget, to a
// resolved neighbour with the wire frozen (no pump: nothing drains the
// ring or answers). A datagram that fits the MTU is built once behind
// headroom and goes as it is: its buffer and the one-frame batch. One of
// 5,000 bytes adds a frame per fragment, and the batch is sized once.
func TestUDPSendToAllocBudget(t *testing.T) {
	st, hp := oneStack(t)
	introduce(t, hp, hostIP, hostMAC)
	waitFrames(t, st, 1)
	u, err := st.OpenUDP(4000)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ size, frames, budget int }{{1400, 1, 2}, {5000, 4, 6}} {
		payload := make([]byte, c.size)
		const runs = 8 // plus AllocsPerRun's warm-up call: well inside the ring
		before := st.Stats().FramesOut
		allocs := testing.AllocsPerRun(runs, func() {
			if err := u.SendTo(hostIP, 9, payload); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d B SendTo: %.0f allocs, %d frames", c.size, allocs, c.frames)
		if allocs > float64(c.budget) {
			t.Errorf("%.2f allocs per %d B SendTo, budget %d", allocs, c.size, c.budget)
		}
		if out := st.Stats().FramesOut - before; out != uint64(c.frames*(runs+1)) {
			t.Fatalf("%d frames left for %d %d B datagrams: some waited or were dropped", out, runs+1, c.size)
		}
	}
}
