package netstack_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"confio/internal/arp"
	"confio/internal/ether"
	"confio/internal/ipv4"
	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/safering"
	"confio/internal/simnet"
	"confio/internal/tcp"
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

// fakeClock is a stack clock that moves only when a test advances it. It
// starts a year past the wall clock, so a deadline taken from the wall
// clock instead has long passed on it.
type fakeClock struct{ at atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.at.Store(time.Now().AddDate(1, 0, 0).UnixNano())
	return c
}

func (c *fakeClock) now() time.Time { return time.Unix(0, c.at.Load()) }

func (c *fakeClock) advance(d time.Duration) { c.at.Add(int64(d)) }

// silentStack is a started stack on clk whose device's pump puts its
// frames on a network where nobody answers.
func silentStack(t *testing.T, clk *fakeClock) *netstack.Stack {
	t.Helper()
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pump := nic.StartPump(safering.NewHostPort(ep.Shared()).NIC(), simnet.New().NewPort())
	t.Cleanup(pump.Stop)
	st := netstack.NewWithClock(ep.NIC(), ipv4.Addr{10, 0, 0, 7}, clk.now)
	st.Start()
	t.Cleanup(st.Close)
	return st
}

// await polls cond for up to five seconds of wall time.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
	}
}

// TestARPWaitersExpire: a SYN to a neighbour that never answers ARP waits
// behind the request while the stack's clock stands still, and is
// dropped, counted, once that clock passes the pending TTL — not leaked
// forever.
func TestARPWaitersExpire(t *testing.T) {
	clk := newFakeClock()
	st := silentStack(t, clk)
	go st.Dial(ipv4.Addr{10, 0, 0, 99}, 9, time.Hour) // returns when the stack closes
	await(t, "the ARP request", func() bool { return st.Stats().ARPRequests == 1 })
	time.Sleep(20 * time.Millisecond) // wall time alone expires nothing
	if s := st.Stats(); s.SendDrops != 0 {
		t.Fatalf("a frame dropped before the stack clock moved: %+v", s)
	}
	clk.advance(netstack.ARPPendingTTL + time.Millisecond)
	await(t, "the expiry of the unanswered ARP waiter", func() bool { return st.Stats().SendDrops >= 1 })
}

// TestDialTimesOutOnTheStackClock: a Dial's timeout runs on the stack's
// clock, the one every wait compares its deadline with. To a neighbour
// that never answers, the Dial waits while that clock stands still,
// however much wall time passes, and returns tcp.ErrTimeout once it
// passes the timeout.
func TestDialTimesOutOnTheStackClock(t *testing.T) {
	clk := newFakeClock()
	st := silentStack(t, clk)
	const timeout = 50 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, err := st.Dial(ipv4.Addr{10, 0, 0, 99}, 9, timeout)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Dial returned %v while the stack clock stood still", err)
	case <-time.After(3 * timeout):
	}
	clk.advance(2 * timeout)
	select {
	case err := <-done:
		if !errors.Is(err, tcp.ErrTimeout) {
			t.Fatalf("Dial = %v once the stack clock passed its timeout, want tcp.ErrTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dial never returned once the stack clock passed its timeout")
	}
}

// TestHostileFragmentsLeaveTheStackAlive: the stack reassembles nothing.
// Three TCP fragments whose last one ends inside data already held — the
// ones that once crashed its reassembler on the stack's own goroutine —
// are three counted IP drops: TCP sees none of them and nothing answers
// them. Behind them the stack still answers ARP and completes a TCP
// handshake.
func TestHostileFragmentsLeaveTheStackAlive(t *testing.T) {
	st, hp := oneStack(t)
	l, err := st.Listen(80, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	push(t, hp, arpFrame(ether.Broadcast, arp.Request(hostMAC, [4]byte(hostIP), [4]byte(stackIP))))
	pop(t, hp) // the stack's ARP reply: it knows the host now
	before, tcpBefore := st.Stats(), st.TCP.Stats()
	for _, f := range []struct {
		off, n uint16
		flags  uint8
	}{{0, 200, ipv4.FlagMF}, {200, 8, ipv4.FlagMF}, {8, 8, 0}} {
		push(t, hp, fragmentFrame(ipv4.ProtoTCP, f.off, f.n, f.flags))
	}
	after := waitFrames(t, st, before.FramesIn+3)
	if after.IPDrops != before.IPDrops+3 || after.FramesOut != before.FramesOut {
		t.Fatalf("three fragments: IP drops %d -> %d, frames out %d -> %d; want three drops and no answer",
			before.IPDrops, after.IPDrops, before.FramesOut, after.FramesOut)
	}
	if got := st.TCP.Stats(); got != tcpBefore {
		t.Fatalf("fragments reached TCP: %+v, before %+v", got, tcpBefore)
	}

	push(t, hp, arpFrame(ether.Broadcast, arp.Request(hostMAC, [4]byte(hostIP), [4]byte(stackIP))))
	if rep, err := arp.Parse(pop(t, hp)[ether.HeaderLen:]); err != nil || rep.Op != arp.OpReply {
		t.Fatalf("no ARP reply after the hostile fragments: %+v %v", rep, err)
	}
	syn := tcp.Header{SrcPort: 4444, DstPort: 80, Seq: 1000, Flags: tcp.FlagSYN, Window: 65535, MSS: 1460}
	push(t, hp, tcpFrame(syn, nil))
	f := pop(t, hp)
	h, seg, err := ipv4.Parse(f[ether.HeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	synAck, _, err := tcp.Parse(h.Src, h.Dst, seg)
	if err != nil || synAck.Flags != tcp.FlagSYN|tcp.FlagACK || synAck.Ack != syn.Seq+1 {
		t.Fatalf("no SYN-ACK after the hostile fragments: %+v %v", synAck, err)
	}
	push(t, hp, tcpFrame(tcp.Header{SrcPort: 4444, DstPort: 80, Seq: syn.Seq + 1, Ack: synAck.Seq + 1,
		Flags: tcp.FlagACK, Window: 65535}, nil))
	if _, err := l.AcceptTimeout(5 * time.Second); err != nil {
		t.Fatalf("the handshake behind the hostile fragments: %v", err)
	}
	if err := st.Degraded(); err != nil {
		t.Fatal(err)
	}
}
