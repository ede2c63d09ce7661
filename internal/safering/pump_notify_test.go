package safering

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"confio/internal/nic"
	"confio/internal/simnet"
)

// Pump integration tests for the event-idx idle ladder: the host pump
// arms the TX wake threshold when idle and sleeps bounded, so it must
// still (a) move traffic promptly after waking, (b) collect all
// goroutines on Stop, and (c) collect itself on fail-dead — even while
// suppression is armed and the bell may never ring again.

func waitForZero(t *testing.T, what string, f func() int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s: %d goroutines still running", what, f())
}

func recvWire(t *testing.T, port *simnet.Port) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f, ok := port.Recv(); ok {
			return f
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("frame never reached the wire")
	return nil
}

// wireFrame builds a broadcast Ethernet frame (so simnet floods it
// instead of MAC-learning a pseudo-random destination onto the pump's
// own port) with a payload that identifies round i.
func wireFrame(i int) []byte {
	f := frame(64, byte(i))
	copy(f[0:6], simnet.Broadcast[:])
	copy(f[6:12], []byte{0x02, 0, 0, 0, 0, byte(i)})
	return f
}

// TestPumpEventIdxRoundTripAndStop: traffic flows through a pump whose
// backend arms/suppresses the event index, including across idle edges
// (pump asleep on the bell), and Stop leaves zero goroutines.
func TestPumpEventIdxRoundTripAndStop(t *testing.T) {
	ep, err := New(eventIdxConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	net := simnet.New()
	portPump, portPeer := net.NewPort(), net.NewPort()
	pump := nic.StartPump(hp.NIC(), portPump)
	defer pump.Stop()

	// Several idle-edge cycles: let the pump spin down and arm, then
	// publish — the bell (or the bounded timer) must wake it.
	for i := 0; i < 5; i++ {
		time.Sleep(2 * time.Millisecond) // pump goes idle and arms
		f := wireFrame(i)
		if err := ep.Send(f); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if got := recvWire(t, portPeer); !bytes.Equal(got, f) {
			t.Fatalf("round %d: frame corrupted in flight", i)
		}
	}

	// Inbound direction still polls while suppressed/armed.
	inb := wireFrame(0xC3)
	if err := portPeer.Send(inb); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rx, err := ep.Recv()
		if err == nil {
			if !bytes.Equal(rx.Bytes(), inb) {
				t.Fatal("inbound frame corrupted")
			}
			rx.Release()
			break
		}
		if !errors.Is(err, ErrRingEmpty) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("inbound frame never delivered while pump armed")
		}
		time.Sleep(100 * time.Microsecond)
	}

	pump.Stop()
	waitForZero(t, "after Stop", pump.Running)
}

// TestPumpFailDeadCollectsWhileArmed: a guest protocol violation while
// the pump is asleep with the threshold armed must still collect the
// pump — the bounded bell wait guarantees the next poll happens, sees
// ErrClosed, and the goroutine exits without anyone calling Stop.
func TestPumpFailDeadCollectsWhileArmed(t *testing.T) {
	ep, err := New(eventIdxConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	net := simnet.New()
	pump := nic.StartPump(hp.NIC(), net.NewPort())
	defer pump.Stop()

	time.Sleep(2 * time.Millisecond) // pump idles, arms, sleeps
	// Guest overclaims its producer index: fatal on the host's next poll.
	ep.Shared().TX.Indexes().StoreProd(ep.Shared().TX.NSlots() * 4)
	waitForZero(t, "after fail-dead", pump.Running)
	if hp.Dead() == nil {
		t.Fatal("host port not dead after producer overclaim")
	}
}

// TestMultiPumpShardedStopAndFailDead covers the sharded pump: one
// worker per queue, all collected on Stop, and — with a fresh device —
// collecting themselves on device-wide fail-dead with suppression armed
// on every queue.
func TestMultiPumpShardedStopAndFailDead(t *testing.T) {
	const queues = 4
	mk := func() (*MultiEndpoint, *MultiHostPort) {
		me, err := NewMulti(eventIdxConfig(), queues, nil)
		if err != nil {
			t.Fatal(err)
		}
		return me, NewMultiHostPort(me.SharedQueues())
	}

	me, mhp := mk()
	net := simnet.New()
	portPump, portPeer := net.NewPort(), net.NewPort()
	pump := nic.StartMultiPump(mhp.HostNICs(), portPump)
	if got := pump.Running(); got != queues {
		t.Fatalf("Running = %d at start, want %d (one worker per queue)", got, queues)
	}
	// Traffic both ways through the shards.
	gmux := me.NIC()
	for i := 0; i < 8; i++ {
		f := wireFrame(i)
		if err := gmux.Send(f); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		recvWire(t, portPeer)
	}
	if err := portPeer.Send(wireFrame(0x5A)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		f, err := gmux.Recv()
		if err == nil {
			f.Release()
			break
		}
		if !errors.Is(err, nic.ErrEmpty) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("inbound frame never delivered through sharded RX")
		}
		time.Sleep(100 * time.Microsecond)
	}
	pump.Stop()
	waitForZero(t, "multi after Stop", pump.Running)

	// Fail-dead self-collection: fresh device, pumps armed and asleep,
	// one queue violates -> device-wide latch -> zero goroutines left.
	me2, mhp2 := mk()
	pump2 := nic.StartMultiPump(mhp2.HostNICs(), simnet.New().NewPort())
	defer pump2.Stop()
	if got := pump2.Running(); got != queues {
		t.Fatalf("Running = %d at start, want %d", got, queues)
	}
	time.Sleep(2 * time.Millisecond)
	sh := me2.Queue(1).Shared()
	sh.TX.Indexes().StoreProd(sh.TX.NSlots() * 4)
	waitForZero(t, "multi after fail-dead", pump2.Running)
	if mhp2.Dead() == nil {
		t.Fatal("multi host port not dead after overclaim")
	}
}
