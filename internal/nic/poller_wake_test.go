package nic_test

import (
	"errors"
	"testing"
	"time"

	"confio/internal/nic"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/simnet"
)

// TestParkedPollerWakes: a poller whose idle wait lasts an hour — only a
// wake can end it — is woken out of that wait by a delivery to either of
// two pumps' ports and by a guest transmit on either pump's queue, with
// the safe ring polling and with doorbells under event-idx: either way
// the transmit index store is the wake. Under event-idx the parked
// poller has armed each queue's wake threshold, so each of those
// idle-edge transmits charges its guest exactly one doorbell; polling
// charges none.
func TestParkedPollerWakes(t *testing.T) {
	for _, mode := range []struct {
		name   string
		notify bool
	}{{"polling", false}, {"doorbell", true}} {
		t.Run(mode.name, func(t *testing.T) {
			net := simnet.New()
			waits := make(chan struct{})
			nic.ParkedPoller(net, waits)
			eps := make([]*safering.Endpoint, 2)
			meters := make([]platform.Meter, len(eps))
			for i := range eps {
				cfg := safering.DefaultConfig()
				cfg.MAC[5] = byte(0x10 + i)
				cfg.Notify, cfg.EventIdx = mode.notify, mode.notify
				ep, err := safering.New(cfg, &meters[i])
				if err != nil {
					t.Fatal(err)
				}
				eps[i] = ep
				pump := nic.StartPump(safering.NewHostPort(ep.Shared()).NIC(), net.NewPort())
				t.Cleanup(pump.Stop)
			}
			peer := net.NewPort()
			parked := func() {
				t.Helper()
				select {
				case <-waits:
				case <-time.After(5 * time.Second):
					t.Fatal("the poller never went idle")
				}
			}
			for i, ep := range eps {
				parked()
				in := ethFrame(simnet.Broadcast, [6]byte{2, 0, 0, 0, 0xEE, byte(i)}, []byte("delivery"))
				if err := peer.Send(in); err != nil {
					t.Fatal(err)
				}
				awaitRecv(t, ep, in)
				parked()
				before := meters[i].Snapshot().Notifications
				out := ethFrame(simnet.Broadcast, [6]byte{2, 0, 0, 0, 0xDD, byte(i)}, []byte("transmit"))
				if err := ep.Send(out); err != nil {
					t.Fatal(err)
				}
				awaitWire(t, peer, out)
				want := uint64(0)
				if mode.notify {
					want = 1
				}
				if got := meters[i].Snapshot().Notifications - before; got != want {
					t.Fatalf("queue %d: an idle-edge transmit charged %d doorbells, want %d", i, got, want)
				}
			}
		})
	}
}

// awaitRecv waits for want at ep, skipping other frames.
func awaitRecv(t *testing.T, ep *safering.Endpoint, want []byte) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		f, err := ep.Recv()
		if errors.Is(err, nic.ErrEmpty) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got := string(f.Bytes())
		f.Release()
		if got == string(want) {
			return
		}
	}
	t.Fatal("the delivery never reached the guest: the parked poller was not woken")
}

// awaitWire waits for want on port, skipping other frames.
func awaitWire(t *testing.T, port *simnet.Port, want []byte) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		if f, ok := port.Recv(); ok && string(f) == string(want) {
			return
		}
	}
	t.Fatal("the transmit never reached the wire: the parked poller was not woken")
}
