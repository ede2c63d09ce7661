package nic_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"confio/internal/nic"
	"confio/internal/safering"
	"confio/internal/simnet"
)

func ethFrame(dst, src [6]byte, payload []byte) []byte {
	f := make([]byte, 14+len(payload))
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	f[12], f[13] = 0x08, 0x00
	copy(f[14:], payload)
	return f
}

func newPair(t *testing.T, mac safering.MAC) (nic.Guest, nic.Host) {
	t.Helper()
	cfg := safering.DefaultConfig()
	cfg.MAC = mac
	ep, err := safering.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ep.NIC(), safering.NewHostPort(ep.Shared()).NIC()
}

func TestAdapterErrorTranslation(t *testing.T) {
	g, h := newPair(t, safering.MAC{2, 0, 0, 0, 0, 1})
	if _, err := g.Recv(); !errors.Is(err, nic.ErrEmpty) {
		t.Fatalf("empty recv: %v", err)
	}
	buf := make([]byte, h.FrameCap())
	if _, err := h.Pop(buf); !errors.Is(err, nic.ErrEmpty) {
		t.Fatalf("empty pop: %v", err)
	}
	// Fill the TX ring.
	f := ethFrame([6]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, [6]byte(g.MAC()), []byte("x"))
	for {
		err := g.Send(f)
		if errors.Is(err, nic.ErrFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if g.MTU() != 1500 {
		t.Fatalf("MTU = %d", g.MTU())
	}
}

func TestBufFrame(t *testing.T) {
	freed := 0
	f := &nic.BufFrame{B: []byte("abc"), OnFree: func() { freed++ }}
	if string(f.Bytes()) != "abc" {
		t.Fatal("Bytes wrong")
	}
	f.Release()
	f.Release()
	if freed != 1 {
		t.Fatalf("OnFree ran %d times", freed)
	}
	empty := &nic.BufFrame{B: nil}
	empty.Release() // nil OnFree must be safe
}

// startPump is one way of starting a pump over one backend.
type startPump = func(nic.Host, *simnet.Port) *nic.Pump

// eachPumpConstructor runs test once per way there is: StartPump, and
// StartMultiPump with one queue.
func eachPumpConstructor(t *testing.T, test func(t *testing.T, start startPump)) {
	t.Run("StartPump", func(t *testing.T) { test(t, nic.StartPump) })
	t.Run("StartMultiPump", func(t *testing.T) {
		test(t, func(h nic.Host, port *simnet.Port) *nic.Pump {
			return nic.StartMultiPump([]nic.BatchHost{nic.UpgradeHost(h)}, port)
		})
	})
}

func TestPumpEndToEnd(t *testing.T) {
	eachPumpConstructor(t, func(t *testing.T, start startPump) {
		macA := safering.MAC{2, 0, 0, 0, 0, 0xA}
		macB := safering.MAC{2, 0, 0, 0, 0, 0xB}
		ga, ha := newPair(t, macA)
		gb, hb := newPair(t, macB)

		net := simnet.New()
		pa := start(ha, net.NewPort())
		pb := start(hb, net.NewPort())
		defer pa.Stop()
		defer pb.Stop()
		if n := pa.Running(); n != 1 {
			t.Fatalf("a one-queue pump runs %d goroutines, want 1", n)
		}

		payload := []byte("over the simulated wire")
		want := ethFrame([6]byte(macB), [6]byte(macA), payload)
		if err := ga.Send(want); err != nil {
			t.Fatal(err)
		}

		deadline := time.After(2 * time.Second)
		for {
			fr, err := gb.Recv()
			if err == nil {
				if !bytes.Equal(fr.Bytes(), want) {
					t.Fatalf("frame corrupted end to end")
				}
				fr.Release()
				break
			}
			if !errors.Is(err, nic.ErrEmpty) {
				t.Fatal(err)
			}
			select {
			case <-deadline:
				t.Fatal("frame never arrived")
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
		tx, _ := pa.Counts()
		if tx != 1 {
			t.Fatalf("pump a tx = %d", tx)
		}
		_, rx := pb.Counts()
		if rx != 1 {
			t.Fatalf("pump b rx = %d", rx)
		}
	})
}

func TestPumpBidirectionalBurst(t *testing.T) {
	eachPumpConstructor(t, func(t *testing.T, start startPump) {
		macA := safering.MAC{2, 0, 0, 0, 0, 0xA}
		macB := safering.MAC{2, 0, 0, 0, 0, 0xB}
		ga, ha := newPair(t, macA)
		gb, hb := newPair(t, macB)

		net := simnet.New()
		pa := start(ha, net.NewPort())
		pb := start(hb, net.NewPort())
		defer pa.Stop()
		defer pb.Stop()

		const burst = 200
		send := func(g nic.Guest, dst, src safering.MAC, tag byte) {
			for i := 0; i < burst; {
				err := g.Send(ethFrame([6]byte(dst), [6]byte(src), []byte{tag, byte(i)}))
				if err == nil {
					i++
					continue
				}
				if !errors.Is(err, nic.ErrFull) {
					t.Error(err)
					return
				}
				time.Sleep(10 * time.Microsecond)
			}
		}
		go send(ga, macB, macA, 1)
		go send(gb, macA, macB, 2)

		recvAll := func(g nic.Guest, wantTag byte) int {
			got := 0
			deadline := time.Now().Add(3 * time.Second)
			for got < burst && time.Now().Before(deadline) {
				fr, err := g.Recv()
				if err != nil {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				if fr.Bytes()[14] == wantTag {
					got++
				}
				fr.Release()
			}
			return got
		}
		if got := recvAll(gb, 1); got != burst {
			t.Fatalf("b received %d/%d", got, burst)
		}
		if got := recvAll(ga, 2); got != burst {
			t.Fatalf("a received %d/%d", got, burst)
		}
	})
}

// TestPumpDropsOversizeFrameAlone: an inbound frame the receive ring
// cannot carry is dropped at classification, as a NIC drops oversize
// frames at ingress — the backend refuses any burst that contains one, so
// it must not take the valid frames around it along.
func TestPumpDropsOversizeFrameAlone(t *testing.T) {
	mac := safering.MAC{2, 0, 0, 0, 0, 0xA}
	g, h := newPair(t, mac)
	net := simnet.New()
	port, peer := net.NewPort(), net.NewPort()
	// Everything is on the wire before the pump starts: one burst.
	const valid = 10
	src := [6]byte{2, 0, 0, 0, 0, 0xB}
	for i := 0; i < valid+1; i++ {
		payload := []byte{byte(i)}
		if i == valid/2 {
			payload = make([]byte, h.FrameCap()) // + 14 bytes of header: over the cap
		}
		if err := peer.Send(ethFrame([6]byte(mac), src, payload)); err != nil {
			t.Fatal(err)
		}
	}
	pump := nic.StartPump(h, port)
	defer pump.Stop()

	got := 0
	for deadline := time.Now().Add(2 * time.Second); got < valid && time.Now().Before(deadline); {
		fr, err := g.Recv()
		if err != nil {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if len(fr.Bytes()) != 15 {
			t.Fatalf("delivered a %d-byte frame", len(fr.Bytes()))
		}
		got++
		fr.Release()
	}
	if got != valid {
		t.Fatalf("%d/%d valid frames delivered around one oversize frame", got, valid)
	}
}
