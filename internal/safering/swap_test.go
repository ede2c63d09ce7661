package safering_test

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"confio/internal/ipv4"
	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/safering"
	"confio/internal/simnet"
)

func TestSwapBasics(t *testing.T) {
	cfg := safering.DefaultConfig()
	cfg.Mode = safering.SharedArea
	cfg.SlotSize = 64
	ep, err := safering.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := safering.NewHostPort(ep.Shared())

	// Traffic through the old device.
	if err := ep.Send(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.FrameCap())
	if _, err := hp.Pop(buf); err != nil {
		t.Fatal(err)
	}

	oldShared := ep.Shared()
	newShared, err := ep.Swap()
	if err != nil {
		t.Fatal(err)
	}
	if newShared == oldShared {
		t.Fatal("swap reused the shared state")
	}
	if ep.Shared() != newShared {
		t.Fatal("Shared() not updated")
	}

	// The new device works immediately, with the same fixed config.
	hp2 := safering.NewHostPort(newShared)
	want := []byte("post-swap frame")
	if err := ep.Send(want); err != nil {
		t.Fatalf("send after swap: %v", err)
	}
	n, err := hp2.Pop(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], want) {
		t.Fatal("post-swap frame corrupted")
	}
	if err := hp2.Push(want); err != nil {
		t.Fatal(err)
	}
	rx, err := ep.Recv()
	if err != nil || !bytes.Equal(rx.Bytes(), want) {
		t.Fatalf("post-swap recv: %v", err)
	}
	rx.Release()
}

// TestSwapRefusesDeadEndpoint: Swap is a live-migration primitive, not a
// recovery oracle. A dead endpoint must be revived only through the
// Reincarnate quarantine — letting Swap do it would give a malicious
// host unlimited free resets.
func TestSwapRefusesDeadEndpoint(t *testing.T) {
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Malicious host kills the endpoint.
	ep.Shared().TX.Indexes().StoreCons(1 << 40)
	if err := ep.Send(make([]byte, 64)); !errors.Is(err, safering.ErrProtocol) {
		t.Fatalf("setup: %v", err)
	}
	if _, err := ep.Swap(); err == nil {
		t.Fatal("swap revived a dead endpoint, bypassing the quarantine")
	}
	if ep.Dead() == nil {
		t.Fatal("refused swap cleared the fatal state")
	}
	// The sanctioned path works: Reincarnate admits the recovery and the
	// reborn device serves traffic at the next epoch.
	sh, err := ep.Reincarnate()
	if err != nil {
		t.Fatal(err)
	}
	if ep.Dead() != nil {
		t.Fatal("reincarnation did not clear the fatal state")
	}
	if ep.Epoch() != 1 {
		t.Fatalf("epoch %d after reincarnation, want 1", ep.Epoch())
	}
	hp := safering.NewHostPort(sh)
	if err := ep.Send(make([]byte, 64)); err != nil {
		t.Fatalf("send after revival: %v", err)
	}
	buf := make([]byte, ep.Config().FrameCap())
	if _, err := hp.Pop(buf); err != nil {
		t.Fatal(err)
	}
}

func TestSwapHeldRevokedFrameStaysValid(t *testing.T) {
	cfg := safering.DefaultConfig()
	cfg.Mode = safering.SharedArea
	cfg.SlotSize = 64
	cfg.RX = safering.Revoke
	ep, err := safering.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := safering.NewHostPort(ep.Shared())
	want := []byte("held across the swap")
	if err := hp.Push(want); err != nil {
		t.Fatal(err)
	}
	rx, err := ep.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Swap(); err != nil {
		t.Fatal(err)
	}
	// The frame from the old instance remains readable and releasable.
	if !bytes.Equal(rx.Bytes(), want) {
		t.Fatal("held frame corrupted by swap")
	}
	rx.Release()
	// And the new instance serves traffic.
	hp2 := safering.NewHostPort(ep.Shared())
	if err := hp2.Push(want); err != nil {
		t.Fatal(err)
	}
	rx2, err := ep.Recv()
	if err != nil {
		t.Fatal(err)
	}
	rx2.Release()
}

// TestTCPSurvivesHotSwap is the §3.2 migration claim end to end: a TCP
// transfer continues across a device hot-swap (in-flight frames lost,
// recovered by retransmission).
func TestTCPSurvivesHotSwap(t *testing.T) {
	net := simnet.New()
	mk := func(mac byte, ip ipv4.Addr) (*netstack.Stack, *safering.Endpoint, func(*nic.Pump)) {
		cfg := safering.DefaultConfig()
		cfg.MAC[5] = mac
		ep, err := safering.New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := netstack.New(ep.NIC(), ip)
		st.Start()
		t.Cleanup(st.Close)
		return st, ep, func(p *nic.Pump) { t.Cleanup(p.Stop) }
	}
	ipA, ipB := ipv4.Addr{10, 9, 0, 1}, ipv4.Addr{10, 9, 0, 2}
	sa, epA, regA := mk(0xA, ipA)
	sb, epB, regB := mk(0xB, ipB)
	_ = epB
	pumpA := nic.StartPump(safering.NewHostPort(epA.Shared()).NIC(), net.NewPort())
	pumpB := nic.StartPump(safering.NewHostPort(epB.Shared()).NIC(), net.NewPort())
	regA(pumpA)
	regB(pumpB)

	l, err := sb.Listen(9999, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte, 1)
	go func() {
		s, err := l.AcceptTimeout(10 * time.Second)
		if err != nil {
			done <- nil
			return
		}
		data, _ := io.ReadAll(readerFor(s))
		done <- data
	}()

	c, err := sa.Dial(ipB, 9999, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 96<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	// Start the transfer, then hot-swap A's NIC mid-stream.
	go func() {
		c.Write(payload)
		c.Close()
	}()
	time.Sleep(2 * time.Millisecond) // let some frames fly
	pumpA.Stop()                     // old device detaches
	newShared, err := epA.Swap()
	if err != nil {
		t.Fatal(err)
	}
	pumpA2 := nic.StartPump(safering.NewHostPort(newShared).NIC(), net.NewPort())
	t.Cleanup(pumpA2.Stop)

	select {
	case got := <-done:
		if !bytes.Equal(got, payload) {
			t.Fatalf("transfer corrupted across hot-swap (%d bytes)", len(got))
		}
	case <-time.After(60 * time.Second):
		t.Fatal("transfer did not survive the hot-swap")
	}
}

type rd struct {
	c interface{ Read([]byte) (int, error) }
}

func (r rd) Read(p []byte) (int, error) { return r.c.Read(p) }

func readerFor(c interface{ Read([]byte) (int, error) }) io.Reader { return rd{c} }

// TestSwapRacesLockFreeReaders: Swap replaces the device instance under
// the endpoint lock while senders size-check frames and read the config
// before taking it. Those lock-free reads must go to the endpoint's own
// immutable config, never through the instance pointer Swap is rewriting
// (make race fails here otherwise).
func TestSwapRacesLockFreeReaders(t *testing.T) {
	cfg := safering.DefaultConfig()
	cfg.Notify = true
	ep, err := safering.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		frames := [][]byte{make([]byte, 100)}
		for {
			select {
			case <-done:
				return
			default:
			}
			// A full ring is fine: nobody drains the swapped-out windows.
			if _, err := ep.SendBatch(frames); err != nil && !errors.Is(err, safering.ErrRingFull) {
				t.Errorf("SendBatch during swap: %v", err)
				return
			}
			if ep.Config().MTU != cfg.MTU {
				t.Error("config changed across a swap")
				return
			}
			if ep.RXBell() == nil {
				t.Error("RXBell vanished across a swap")
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := ep.Swap(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	<-stopped
}
