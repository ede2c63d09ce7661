package core

import (
	"bytes"
	"errors"
	"testing"

	"confio/internal/netvsc"
	"confio/internal/nic"
	"confio/internal/safering"
	"confio/internal/tdisp"
	"confio/internal/virtio"
)

// recordingWire is a tdisp.WirePort that keeps what the device put on the
// wire (copied, as simnet.Port.Send does).
type recordingWire struct{ sent [][]byte }

func (w *recordingWire) Send(frame []byte) error {
	w.sent = append(w.sent, append([]byte(nil), frame...))
	return nil
}
func (w *recordingWire) Recv() ([]byte, bool) { return nil, false }

// TestGuestTransportsCopyOnSend pins the rule the stack's frame-buffer
// pool relies on (nic.Guest.Send, nic.BatchGuest.SendBatch): a transport
// copies what it is handed, so the caller may overwrite the buffer the
// moment the call returns. Every guest transport sends a frame through
// Send and another through SendBatch, the test scribbles over both
// buffers, and the far side must still read the original bytes.
func TestGuestTransportsCopyOnSend(t *testing.T) {
	// popAll drains the host sides into a list of frames.
	popAll := func(t *testing.T, hosts ...nic.Host) [][]byte {
		t.Helper()
		var got [][]byte
		for _, h := range hosts {
			buf := make([]byte, h.FrameCap())
			for {
				n, err := h.Pop(buf)
				if errors.Is(err, nic.ErrEmpty) {
					break
				}
				if err != nil {
					t.Fatalf("Pop: %v", err)
				}
				got = append(got, append([]byte(nil), buf[:n]...))
			}
		}
		return got
	}
	safePair := func(t *testing.T) (*safering.Endpoint, nic.Host) {
		t.Helper()
		ep, err := safering.New(safering.DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return ep, safering.NewHostPort(ep.Shared()).NIC()
	}

	// Each case returns the guest under test and a function that yields
	// the frames that came out of the far side, as the guest sent them.
	cases := []struct {
		name  string
		build func(t *testing.T) (nic.Guest, func() [][]byte)
	}{
		{"safering", func(t *testing.T) (nic.Guest, func() [][]byte) {
			ep, host := safePair(t)
			return ep.NIC(), func() [][]byte { return popAll(t, host) }
		}},
		{"safering-mux", func(t *testing.T) (nic.Guest, func() [][]byte) {
			mep, err := safering.NewMulti(safering.DefaultConfig(), 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			var hosts []nic.Host
			for _, h := range safering.NewMultiHostPort(mep.SharedQueues()).HostNICs() {
				hosts = append(hosts, h)
			}
			return mep.NIC(), func() [][]byte { return popAll(t, hosts...) }
		}},
		{"virtio", func(t *testing.T) (nic.Guest, func() [][]byte) {
			d, dv, err := virtio.NewPair(virtio.DefaultConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return d.NIC(), func() [][]byte { return popAll(t, dv.NIC()) }
		}},
		{"netvsc", func(t *testing.T) (nic.Guest, func() [][]byte) {
			d, h, err := netvsc.New(netvsc.DefaultConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return d.NIC(), func() [][]byte { return popAll(t, h.NIC()) }
		}},
		{"tdisp", func(t *testing.T) (nic.Guest, func() [][]byte) {
			id, key, fw := tdisp.DeviceID("nic-test"), []byte("manufacturer-key"), []byte("firmware")
			wire := &recordingWire{}
			dev := tdisp.NewDevice(id, key, fw, wire)
			relay := &tdisp.Relay{}
			dev.Connect(relay)
			rot := &tdisp.RootOfTrust{
				Keys: map[tdisp.DeviceID][]byte{id: key},
				Good: map[tdisp.Measurement]bool{tdisp.MeasureFirmware(fw): true},
			}
			g, err := tdisp.Attach(dev, rot, relay, [6]byte{2, 0, 0, 0xDD, 0, 1}, 1500, nil)
			if err != nil {
				t.Fatal(err)
			}
			return g, func() [][]byte {
				for {
					worked, err := dev.Step()
					if err != nil {
						t.Fatalf("device step: %v", err)
					}
					if !worked {
						return wire.sent
					}
				}
			}
		}},
		{"tunnel", func(t *testing.T) (nic.Guest, func() [][]byte) {
			ep, host := safePair(t)
			key := hkdfLikeKey([]byte("retention"))
			tg, err := newTunnelNIC(ep.NIC(), key, nil)
			if err != nil {
				t.Fatal(err)
			}
			return tg, func() [][]byte {
				var inner [][]byte
				for _, outer := range popAll(t, host) {
					fr, err := tg.open(&nic.BufFrame{B: outer})
					if err != nil || fr == nil {
						t.Fatalf("tunnel frame did not decapsulate: %v", err)
					}
					inner = append(inner, fr.Bytes())
				}
				return inner
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, received := tc.build(t)
			// Two broadcast frames of one flow, so a mux keeps their order.
			var want, bufs [][]byte
			for i := 0; i < 2; i++ {
				f := bytes.Repeat([]byte{byte(0xA0 + i)}, 200)
				copy(f, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 2, 0, 0, 0, 0, 9, 0x88, 0xB6})
				want = append(want, append([]byte(nil), f...))
				bufs = append(bufs, f)
			}
			if err := g.Send(bufs[0]); err != nil {
				t.Fatalf("Send: %v", err)
			}
			if n, err := nic.UpgradeGuest(g).SendBatch(bufs[1:]); n != 1 || err != nil {
				t.Fatalf("SendBatch = (%d, %v), want (1, nil)", n, err)
			}
			for _, f := range bufs {
				for i := range f {
					f[i] = 0x5C // the pool's next borrower overwrites the buffer
				}
			}
			bufs[1] = nil // and the slice of buffers is the caller's again too
			got := received()
			if len(got) != len(want) {
				t.Fatalf("far side received %d frames, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("frame %d changed after the caller reused its buffer: got % x…, want % x…", i, got[i][:20], want[i][:20])
				}
			}
		})
	}
}
