package netstack_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"confio/internal/arp"
	"confio/internal/ether"
	"confio/internal/ipv4"
	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/safering"
	"confio/internal/simnet"
)

// oneStack builds a stack whose host side is driven manually (no pump),
// so tests can inject raw frames.
func oneStack(t *testing.T) (*netstack.Stack, *safering.HostPort) {
	t.Helper()
	cfg := safering.DefaultConfig()
	cfg.MAC[5] = 0x77
	ep, err := safering.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := netstack.New(ep.NIC(), ipv4.Addr{10, 0, 0, 7})
	st.Start()
	t.Cleanup(st.Close)
	return st, safering.NewHostPort(ep.Shared())
}

func waitFrames(t *testing.T, st *netstack.Stack, min uint64) netstack.Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s := st.Stats(); s.FramesIn >= min {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("stack never saw %d frames: %+v", min, st.Stats())
	return netstack.Stats{}
}

func TestForeignDestinationIgnored(t *testing.T) {
	st, hp := oneStack(t)
	// Frame addressed to a different MAC: counted in, then dropped at L2.
	f := make([]byte, 60)
	copy(f[0:6], []byte{2, 2, 2, 2, 2, 2}) // not ours, not broadcast
	f[12], f[13] = 0x08, 0x00
	if err := hp.Push(f); err != nil {
		t.Fatal(err)
	}
	s := waitFrames(t, st, 1)
	if s.IPDrops != 0 {
		t.Fatalf("foreign frame should be ignored before IP: %+v", s)
	}
}

func TestMalformedIPv4Counted(t *testing.T) {
	st, hp := oneStack(t)
	f := make([]byte, 40)
	copy(f[0:6], []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // broadcast: reaches IP layer
	f[12], f[13] = 0x08, 0x00
	f[14] = 0x45 // version ok, but checksum will be garbage
	for i := 15; i < 34; i++ {
		f[i] = 0xAB
	}
	if err := hp.Push(f); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st.Stats().IPDrops >= 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("malformed IPv4 not counted: %+v", st.Stats())
}

func TestUnknownProtocolDropped(t *testing.T) {
	st, hp := oneStack(t)
	// Valid IPv4 to our address, protocol 99.
	h := ipv4.Header{TTL: 64, Proto: 99, Src: ipv4.Addr{10, 0, 0, 9}, Dst: ipv4.Addr{10, 0, 0, 7}}
	pkt := refIPv4(h, []byte("??"))
	f := make([]byte, 14+len(pkt))
	copy(f[0:6], []byte{0x02, 0x00, 0x00, 0xC1, 0x0A, 0x77})
	f[12], f[13] = 0x08, 0x00
	copy(f[14:], pkt)
	if err := hp.Push(f); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st.Stats().IPDrops >= 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("unknown protocol not counted: %+v", st.Stats())
}

func TestARPWaitersExpire(t *testing.T) {
	// A send to a neighbour that never answers ARP is dropped after the
	// pending TTL (and counted), not leaked forever.
	net := simnet.New()
	cfg := safering.DefaultConfig()
	ep, err := safering.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pump attached so ARP requests actually leave; nobody answers.
	pump := startPump(t, ep, net)
	_ = pump
	st := netstack.New(ep.NIC(), ipv4.Addr{10, 0, 0, 7})
	st.Start()
	t.Cleanup(st.Close)

	u, err := st.OpenUDP(9)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.SendTo(ipv4.Addr{10, 0, 0, 99}, 9, []byte("void")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st.Stats().SendDrops >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("unresolved ARP waiter never expired: %+v", st.Stats())
}

func startPump(t *testing.T, ep *safering.Endpoint, net *simnet.Network) func() {
	t.Helper()
	pump := nic.StartPump(safering.NewHostPort(ep.Shared()).NIC(), net.NewPort())
	t.Cleanup(pump.Stop)
	return pump.Stop
}

func TestPing(t *testing.T) {
	sa, sb, _ := twoStacks(t, transports()[0])
	rtt, err := sa.Ping(sb.IP(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Fatalf("rtt = %v", rtt)
	}
	// Several pings in a row (distinct ids).
	for i := 0; i < 3; i++ {
		if _, err := sa.Ping(sb.IP(), 5*time.Second); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	// Pinging a silent address times out.
	if _, err := sa.Ping(ipv4.Addr{10, 0, 0, 99}, 200*time.Millisecond); err == nil {
		t.Fatal("ping to nowhere succeeded")
	}
}

func TestICMPBadChecksumDropped(t *testing.T) {
	st, hp := oneStack(t)
	h := ipv4.Header{TTL: 64, Proto: ipv4.ProtoICMP, Src: ipv4.Addr{10, 0, 0, 9}, Dst: ipv4.Addr{10, 0, 0, 7}}
	icmp := make([]byte, 8)
	icmp[0] = 8
	icmp[2] = 0xBA // wrong checksum
	pkt := refIPv4(h, icmp)
	f := make([]byte, 14+len(pkt))
	copy(f[0:6], []byte{0x02, 0x00, 0x00, 0xC1, 0x0A, 0x77})
	f[12], f[13] = 0x08, 0x00
	copy(f[14:], pkt)
	if err := hp.Push(f); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st.Stats().IPDrops >= 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("bad ICMP checksum not dropped: %+v", st.Stats())
}

// TestHostileFragmentsLeaveTheStackAlive: three fragments whose last one
// ends inside data already held once crashed the reassembler on the
// stack's own goroutine, taking the process with it. The stack must drop
// them and go on answering: an echo request pushed behind them is
// answered.
func TestHostileFragmentsLeaveTheStackAlive(t *testing.T) {
	st, hp := oneStack(t)
	push(t, hp, arpFrame(ether.Broadcast, arp.Request(hostMAC, [4]byte(hostIP), [4]byte(stackIP))))
	pop(t, hp) // the stack's ARP reply: it knows the host now
	for _, f := range []struct {
		off, n uint16
		flags  uint8
	}{{0, 200, ipv4.FlagMF}, {200, 8, ipv4.FlagMF}, {8, 8, 0}} {
		h := ipv4.Header{ID: 77, Flags: f.flags, FragOff: f.off, TTL: 64, Proto: ipv4.ProtoUDP, Src: hostIP, Dst: stackIP}
		push(t, hp, refEther(stackMAC, hostMAC, ether.TypeIPv4, refIPv4(h, make([]byte, f.n))))
	}
	push(t, hp, echoRequest(78, []byte("still there?")))
	reply := pop(t, hp)
	h, msg, err := ipv4.Parse(reply[ether.HeaderLen:])
	if err != nil || h.Proto != ipv4.ProtoICMP || msg[0] != 0 {
		t.Fatalf("no echo reply after the hostile fragments: %+v %v", h, err)
	}
	if err := st.Degraded(); err != nil {
		t.Fatal(err)
	}
}

// TestUDPRefusesWhatIPv4CannotCarry: a payload past 65,507 bytes has no
// valid length field or fragment offsets, so SendTo refuses it before
// encoding anything; the largest payload that fits still crosses intact.
func TestUDPRefusesWhatIPv4CannotCarry(t *testing.T) {
	sa, sb, _ := twoStacks(t, transports()[0])
	ua, _ := sa.OpenUDP(1000)
	ub, _ := sb.OpenUDP(2000)
	for _, n := range []int{65508, 70000} {
		if err := ua.SendTo(ipB, 2000, make([]byte, n)); !errors.Is(err, netstack.ErrTooLarge) {
			t.Fatalf("SendTo of %d bytes: %v, want ErrTooLarge", n, err)
		}
	}
	if s := sa.Stats(); s.FramesOut != 0 || s.ARPRequests != 0 {
		t.Fatalf("refused datagrams reached the wire: %+v", s)
	}
	payload := make([]byte, 65507)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := ua.SendTo(ipB, 2000, payload); err != nil {
		t.Fatal(err)
	}
	d, err := ub.RecvFrom(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Payload, payload) {
		t.Fatal("the largest datagram arrived changed")
	}
}
