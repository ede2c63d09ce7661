package nic_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"confio/internal/netvsc"
	"confio/internal/nic"
	"confio/internal/safering"
	"confio/internal/tdisp"
	"confio/internal/virtio"
)

// ends is one fresh instance of a transport under the nic contract.
type ends struct {
	g nic.Guest
	// h is nil where the device is no nic.Host: tdisp's runs its own
	// firmware loop.
	h nic.Host
	// guestFills is false where nothing bounds the guest's transmit
	// side: tdisp's relay queues without limit.
	guestFills bool
	// violate plays one host violation the transport's checks catch and
	// returns the first error the guest sees after it; nil where the
	// transport checks nothing (the unhardened baselines).
	violate func() error
}

// wire is a physical port for a tdisp device that delivers what the test
// queues and drops what the device sends.
type wire struct{ in [][]byte }

func (w *wire) Send([]byte) error { return nil }
func (w *wire) Recv() ([]byte, bool) {
	if len(w.in) == 0 {
		return nil, false
	}
	f := w.in[0]
	w.in = w.in[1:]
	return f, true
}

var transports = []struct {
	name  string
	build func(t *testing.T) ends
}{
	{"safering", func(t *testing.T) ends {
		ep, err := safering.New(safering.DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return ends{g: ep.NIC(), h: safering.NewHostPort(ep.Shared()).NIC(), guestFills: true,
			violate: func() error {
				ep.Shared().RXUsed.Indexes().StoreProd(uint64(ep.Config().Slots) * 4)
				_, err := ep.NIC().Recv()
				return err
			}}
	}},
	{"virtio", func(t *testing.T) ends { return virtioEnds(t, virtio.NoHardening()) }},
	{"virtio-hardened", func(t *testing.T) ends { return virtioEnds(t, virtio.FullHardening()) }},
	{"netvsc", func(t *testing.T) ends { return netvscEnds(t, netvsc.Hardening{}) }},
	{"netvsc-hardened", func(t *testing.T) ends { return netvscEnds(t, netvsc.FullHardening()) }},
	{"tdisp", func(t *testing.T) ends {
		key, fw := []byte("manufacturer-key"), []byte("nic-firmware")
		w := new(wire)
		dev := tdisp.NewDevice("nic", key, fw, w)
		relay := new(tdisp.Relay)
		dev.Connect(relay)
		rot := &tdisp.RootOfTrust{Keys: map[tdisp.DeviceID][]byte{"nic": key},
			Good: map[tdisp.Measurement]bool{tdisp.MeasureFirmware(fw): true}}
		g, err := tdisp.Attach(dev, rot, relay, [6]byte{2, 0, 0, 0, 0, 1}, 1500, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ends{g: g, violate: func() error {
			relay.HookToTEE = func(tlp []byte) []byte { tlp[0] ^= 1; return tlp }
			w.in = append(w.in, make([]byte, 64))
			if _, err := dev.Step(); err != nil {
				t.Fatal(err)
			}
			_, err := g.Recv()
			return err
		}}
	}},
}

func virtioEnds(t *testing.T, hard virtio.Hardening) ends {
	cfg := virtio.DefaultConfig()
	cfg.Hardening = hard
	d, dv, err := virtio.NewPair(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := ends{g: d.NIC(), h: dv.NIC(), guestFills: true}
	if hard.Checks {
		e.violate = func() error {
			_, rx := dv.Queues()
			rx.ForgeUsedIdx(1 << 20)
			_, err := d.Recv()
			return err
		}
	}
	return e
}

func netvscEnds(t *testing.T, hard netvsc.Hardening) ends {
	cfg := netvsc.DefaultConfig()
	cfg.Hardening = hard
	d, h, err := netvsc.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := ends{g: d.NIC(), h: h.NIC(), guestFills: true}
	if hard.Checks {
		e.violate = func() error {
			d.Channel().ForgeInProd(1 << 40)
			_, err := d.Recv()
			return err
		}
	}
	return e
}

// fill sends until the transport refuses and returns the refusal.
func fill(send func([]byte) error) error {
	f := make([]byte, 64)
	for i := 0; i < 1<<16; i++ {
		if err := send(f); err != nil {
			return err
		}
	}
	return nil
}

// TestEveryTransportSpeaksNic is the nic contract, transport by
// transport: the deployment's MTU (1500 in every default), empty is
// nic.ErrEmpty and full nic.ErrFull on both sides, returned by the
// transport itself, and the first error after a host violation the
// transport detects is already nic.ErrClosed — as the transport's own
// fatal error, which names the check, never the bare sentinel.
func TestEveryTransportSpeaksNic(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			e := tr.build(t)
			if e.g.MTU() != 1500 {
				t.Errorf("MTU = %d, want 1500", e.g.MTU())
			}
			if _, err := e.g.Recv(); !errors.Is(err, nic.ErrEmpty) {
				t.Errorf("guest Recv on an empty transport: %v, want nic.ErrEmpty", err)
			}
			if _, err := nic.UpgradeGuest(e.g).RecvBatch(make([]nic.Frame, 4)); !errors.Is(err, nic.ErrEmpty) {
				t.Errorf("guest RecvBatch on an empty transport: %v, want nic.ErrEmpty", err)
			}
			if e.h != nil {
				if _, err := e.h.Pop(make([]byte, e.h.FrameCap())); !errors.Is(err, nic.ErrEmpty) {
					t.Errorf("host Pop on an empty transport: %v, want nic.ErrEmpty", err)
				}
				if err := fill(e.h.Push); !errors.Is(err, nic.ErrFull) {
					t.Errorf("host Push on a full transport: %v, want nic.ErrFull", err)
				}
			}
			if e.guestFills {
				if err := fill(e.g.Send); !errors.Is(err, nic.ErrFull) {
					t.Errorf("guest Send on a full transport: %v, want nic.ErrFull", err)
				}
			}
			if v := tr.build(t).violate; v != nil {
				if err := v(); !errors.Is(err, nic.ErrClosed) {
					t.Errorf("first error after a host violation: %v, want nic.ErrClosed", err)
				} else if err == nic.ErrClosed {
					t.Errorf("first error after a host violation is the bare nic.ErrClosed: it names no check")
				}
			}
		})
	}
}

// TestSaferingStallIsErrStalled: once the watchdog declares a frozen
// host, the guest's next operation reports nic.ErrStalled.
func TestSaferingStallIsErrStalled(t *testing.T) {
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	wd := safering.NewWatchdog(safering.WatchdogConfig{StallAfter: time.Second,
		Clock: func() time.Time { return now }}, ep)
	g := ep.NIC()
	if err := g.Send(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	wd.Poll() // the host owes progress from now on
	now = now.Add(2 * time.Second)
	wd.Poll() // and has made none: stalled
	if err := g.Send(make([]byte, 64)); !errors.Is(err, nic.ErrStalled) {
		t.Fatalf("send after a stall: %v, want nic.ErrStalled", err)
	}
}

// TestHostPushKeepsNoReference is the host twin of core's
// TestGuestTransportsCopyOnSend: every host copies what Push and
// PushBatch deliver, so the pump may hand the wire's buffer back the
// moment they return. A frame overwritten right after its push still
// reaches the guest as pushed.
func TestHostPushKeepsNoReference(t *testing.T) {
	frame := func(tag byte) []byte {
		f := make([]byte, 64)
		for i := range f {
			f[i] = tag + byte(i)
		}
		return f
	}
	for _, tr := range transports {
		e := tr.build(t)
		if e.h == nil {
			continue
		}
		t.Run(tr.name, func(t *testing.T) {
			one, two, three := frame(1), frame(2), frame(3)
			if err := e.h.Push(one); err != nil {
				t.Fatal(err)
			}
			copy(one, frame(0xF0))
			if n, err := nic.UpgradeHost(e.h).PushBatch([][]byte{two, three}); n != 2 || err != nil {
				t.Fatalf("PushBatch = %d, %v", n, err)
			}
			copy(two, frame(0xF0))
			copy(three, frame(0xF0))
			for i, want := range [][]byte{frame(1), frame(2), frame(3)} {
				f, err := e.g.Recv()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if !bytes.Equal(f.Bytes(), want) {
					t.Fatalf("frame %d reached the guest with the bytes written after its push", i)
				}
				f.Release()
			}
		})
	}
}
