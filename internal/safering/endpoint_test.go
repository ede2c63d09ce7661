package safering

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"confio/internal/nic"
	"confio/internal/platform"
	"confio/internal/shmem"
)

// cfgFor builds a valid config for the given mode/policy.
func cfgFor(mode DataMode, rx RXPolicy) DeviceConfig {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.RX = rx
	if mode != Inline {
		cfg.SlotSize = 64 // descriptor-only slots
	}
	return cfg
}

func allModes() []DeviceConfig {
	return []DeviceConfig{
		cfgFor(Inline, CopyOut),
		cfgFor(SharedArea, CopyOut),
		cfgFor(SharedArea, Revoke),
		cfgFor(Indirect, CopyOut),
	}
}

func frame(n int, seed byte) []byte {
	f := make([]byte, n)
	for i := range f {
		f[i] = seed + byte(i)
	}
	return f
}

func TestSendPopRoundTripAllModes(t *testing.T) {
	for _, cfg := range allModes() {
		t.Run(fmt.Sprintf("%v-%v", cfg.Mode, cfg.RX), func(t *testing.T) {
			var m platform.Meter
			ep, err := New(cfg, &m)
			if err != nil {
				t.Fatal(err)
			}
			hp := NewHostPort(ep.Shared())
			buf := make([]byte, cfg.FrameCap())
			for i := 0; i < 3*cfg.Slots; i++ { // wrap the ring
				f := frame(64+i%900, byte(i))
				if err := ep.Send(f); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				n, err := hp.Pop(buf)
				if err != nil {
					t.Fatalf("pop %d: %v", i, err)
				}
				if !bytes.Equal(buf[:n], f) {
					t.Fatalf("frame %d corrupted in transit", i)
				}
			}
			if _, err := hp.Pop(buf); !errors.Is(err, nic.ErrEmpty) {
				t.Fatalf("empty pop: %v", err)
			}
		})
	}
}

func TestPushRecvRoundTripAllModes(t *testing.T) {
	for _, cfg := range allModes() {
		t.Run(fmt.Sprintf("%v-%v", cfg.Mode, cfg.RX), func(t *testing.T) {
			var m platform.Meter
			ep, err := New(cfg, &m)
			if err != nil {
				t.Fatal(err)
			}
			hp := NewHostPort(ep.Shared())
			for i := 0; i < 3*cfg.Slots; i++ {
				f := frame(64+i%900, byte(i))
				if err := hp.Push(f); err != nil {
					t.Fatalf("push %d: %v", i, err)
				}
				rx, err := ep.Recv()
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if !bytes.Equal(rx.Bytes(), f) {
					t.Fatalf("frame %d corrupted in transit", i)
				}
				rx.Release()
				rx.Release() // idempotent
			}
			if _, err := ep.Recv(); !errors.Is(err, nic.ErrEmpty) {
				t.Fatalf("empty recv: %v", err)
			}
		})
	}
}

func TestSendRingFullAndReap(t *testing.T) {
	cfg := cfgFor(Inline, CopyOut)
	cfg.Slots = 4
	ep, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	for i := 0; i < 4; i++ {
		if err := ep.Send(frame(100, 1)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := ep.Send(frame(100, 1)); !errors.Is(err, nic.ErrFull) {
		t.Fatalf("want nic.ErrFull, got %v", err)
	}
	buf := make([]byte, cfg.FrameCap())
	if _, err := hp.Pop(buf); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(frame(100, 1)); err != nil {
		t.Fatalf("send after pop: %v", err)
	}
}

func TestSharedAreaSlabsReapedAfterConsumption(t *testing.T) {
	cfg := cfgFor(SharedArea, CopyOut)
	cfg.Slots = 8
	ep, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	buf := make([]byte, cfg.FrameCap())
	// Many more frames than there are slabs: only works if completion
	// reaping frees them.
	for i := 0; i < 10*cfg.Slots; i++ {
		if err := ep.Send(frame(500, byte(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, err := hp.Pop(buf); err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
	}
	if err := ep.Reap(); err != nil {
		t.Fatal(err)
	}
	if free := ep.Shared().TXData.FreeSlabs(); free != cfg.Slots {
		t.Fatalf("after reap, free slabs = %d, want %d", free, cfg.Slots)
	}
}

// sendOneSlab sends an n-byte frame on an Indirect endpoint whose TX is
// drained, asserts the arena holds one slab per slot, that the frame cost
// exactly one of them and wrote the entry (1, handle, n), and pops it
// back intact.
func sendOneSlab(t *testing.T, ep *Endpoint, hp *HostPort, n int) {
	t.Helper()
	if err := ep.Reap(); err != nil {
		t.Fatal(err)
	}
	sh := ep.Shared()
	free := sh.TXData.FreeSlabs()
	if free != ep.Config().Slots {
		t.Fatalf("drained indirect arena has %d free slabs, want one per slot (%d)", free, ep.Config().Slots)
	}
	f := frame(n, byte(n))
	if err := ep.Send(f); err != nil {
		t.Fatalf("send %d bytes: %v", n, err)
	}
	if got := sh.TXData.FreeSlabs(); got != free-1 {
		t.Fatalf("%d-byte frame took %d slabs, want 1", n, free-got)
	}
	entry := sh.TX.ReadDesc(sh.TX.Indexes().LoadProd()-1).Ref * indEntrySize
	nseg, h, ln := sh.TXInd.U64(entry), shmem.Handle(sh.TXInd.U64(entry+16)), sh.TXInd.U64(entry+24)
	if nseg != 1 || ln != uint64(n) {
		t.Fatalf("%d-byte frame: entry (count %d, len %d), want (1, %d)", n, nseg, ln, n)
	}
	if _, err := sh.TXData.Verify(h); err != nil {
		t.Fatalf("%d-byte frame: entry handle %#x: %v", n, h, err)
	}
	buf := make([]byte, ep.Config().FrameCap())
	got, err := hp.Pop(buf)
	if err != nil || !bytes.Equal(buf[:got], f) {
		t.Fatalf("%d-byte frame: pop %d bytes, %v, or corrupted", n, got, err)
	}
}

// TestIndirectMultiSegment: no frame is ever multi-segment. A jumbo MTU
// that would need a second page is refused at construction, and every
// length a valid config can carry costs exactly one slab.
func TestIndirectMultiSegment(t *testing.T) {
	cfg := cfgFor(Indirect, CopyOut)
	cfg.MTU = 9000 // frame cap past the one-page slab
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("9000 MTU with 4 KiB RX pages should be rejected")
	}
	cfg.MTU = 3000 // frame cap 3064 -> one 4 KiB slab
	ep, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	for n := 1; n <= cfg.FrameCap(); n++ {
		sendOneSlab(t, ep, hp, n)
	}
}

// TestIndirectSegmentSplit pins the geometry that makes one segment
// enough: across MTUs the slab holds FrameCap, the arena holds Slots
// slabs (one per TX slot), and a FrameCap frame takes one of them.
func TestIndirectSegmentSplit(t *testing.T) {
	for _, mtu := range []int{64, 1500, 2000, platform.PageSize - HeaderSlack} {
		cfg := cfgFor(Indirect, CopyOut)
		cfg.MTU = mtu
		ep, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		txd := ep.Shared().TXData
		if txd.SlabSize() < cfg.FrameCap() {
			t.Fatalf("MTU %d: slab %d smaller than frame cap %d", mtu, txd.SlabSize(), cfg.FrameCap())
		}
		if got := txd.Region().Size() / txd.SlabSize(); got != cfg.Slots {
			t.Fatalf("MTU %d: indirect arena slabs = %d, want %d", mtu, got, cfg.Slots)
		}
		sendOneSlab(t, ep, NewHostPort(ep.Shared()), cfg.FrameCap())
	}
}

func TestSendRejectsBadFrames(t *testing.T) {
	ep, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(nil); !errors.Is(err, ErrFrameSize) {
		t.Errorf("empty frame: %v", err)
	}
	if err := ep.Send(make([]byte, ep.Config().FrameCap()+1)); !errors.Is(err, ErrFrameSize) {
		t.Errorf("oversized frame: %v", err)
	}
}

func TestHostPushRejectsBadFrames(t *testing.T) {
	ep, _ := New(DefaultConfig(), nil)
	hp := NewHostPort(ep.Shared())
	if err := hp.Push(nil); !errors.Is(err, ErrFrameSize) {
		t.Errorf("empty frame: %v", err)
	}
	if err := hp.Push(make([]byte, ep.Config().FrameCap()+1)); !errors.Is(err, ErrFrameSize) {
		t.Errorf("oversized frame: %v", err)
	}
}

func TestRecvAfterCopyIsImmuneToHostRewrite(t *testing.T) {
	// Copy-out policy: once Recv returns, host scribbling on the slab
	// must not affect the delivered bytes.
	for _, cfg := range []DeviceConfig{cfgFor(Inline, CopyOut), cfgFor(SharedArea, CopyOut)} {
		ep, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		hp := NewHostPort(ep.Shared())
		f := frame(256, 9)
		if err := hp.Push(f); err != nil {
			t.Fatal(err)
		}
		rx, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		// Malicious host rewrites all shared memory after delivery.
		ep.Shared().RXUsed.Slots().Fill(0xFF)
		if ep.Shared().RXData != nil {
			ep.Shared().RXData.Region().Fill(0xFF)
		}
		if !bytes.Equal(rx.Bytes(), f) {
			t.Fatalf("mode %v: delivered frame affected by post-delivery host write", cfg.Mode)
		}
		rx.Release()
	}
}

func TestRevokeBlocksHostDuringUse(t *testing.T) {
	cfg := cfgFor(SharedArea, Revoke)
	var m platform.Meter
	ep, err := New(cfg, &m)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	f := frame(512, 3)
	if err := hp.Push(f); err != nil {
		t.Fatal(err)
	}
	rx, err := ep.Recv()
	if err != nil {
		t.Fatal(err)
	}
	// The frame is used in place — no copy happened.
	if got := m.Snapshot().BytesCopied; got != 0 {
		t.Fatalf("revoke policy copied %d bytes", got)
	}
	// Host cannot touch the revoked page while the guest uses the frame.
	hv := ep.Shared().RXData.HostView()
	if err := hv.WriteAt([]byte{0xFF}, 0); !errors.Is(err, platform.ErrRevoked) {
		t.Fatalf("host write during use: %v", err)
	}
	if !bytes.Equal(rx.Bytes(), f) {
		t.Fatal("frame corrupted")
	}
	rx.Release()
	// After release the slab is re-shared and reposted; host can push
	// into it again.
	if err := hp.Push(f); err != nil {
		t.Fatalf("push after release: %v", err)
	}
	if m.Snapshot().PagesRevoked != 1 {
		t.Fatalf("PagesRevoked = %d", m.Snapshot().PagesRevoked)
	}
}

func TestRevokeRecyclesAllSlabs(t *testing.T) {
	cfg := cfgFor(SharedArea, Revoke)
	cfg.Slots = 4
	ep, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	for round := 0; round < 5; round++ {
		var frames []nic.Frame
		for i := 0; i < cfg.Slots; i++ {
			if err := hp.Push(frame(128, byte(i))); err != nil {
				t.Fatalf("round %d push %d: %v", round, i, err)
			}
		}
		// All slabs are now held by the guest.
		if err := hp.Push(frame(128, 0)); !errors.Is(err, nic.ErrFull) {
			t.Fatalf("push with no slabs: %v", err)
		}
		for i := 0; i < cfg.Slots; i++ {
			rx, err := ep.Recv()
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, rx)
		}
		for _, fr := range frames {
			fr.Release()
		}
	}
}

func TestMeterCountsCopies(t *testing.T) {
	var m platform.Meter
	ep, err := New(cfgFor(SharedArea, CopyOut), &m)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	if err := ep.Send(frame(1000, 1)); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().BytesCopied; got != 1000 {
		t.Fatalf("tx BytesCopied = %d, want 1000", got)
	}
	if err := hp.Push(frame(500, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().BytesCopied; got != 1500 {
		t.Fatalf("rx BytesCopied = %d, want 1500", got)
	}
}

// TestDoorbellsRingOnTraffic: on a notifying device without event-idx
// every publication charges its peer's bell once.
func TestDoorbellsRingOnTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Notify = true
	var m platform.Meter
	ep, err := New(cfg, &m)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	if err := ep.Send(frame(64, 1)); err != nil {
		t.Fatal(err)
	}
	if n := m.Snapshot().Notifications; n != 1 {
		t.Fatalf("after Send: Notifications = %d, want 1 (TX bell)", n)
	}
	if err := hp.Push(frame(64, 1)); err != nil {
		t.Fatal(err)
	}
	if n := m.Snapshot().Notifications; n != 2 {
		t.Fatalf("after Push: Notifications = %d, want 2 (RX bell)", n)
	}
}

// Property: random frame contents and sizes survive guest->host transit
// byte-for-byte in every mode.
func TestTransitFidelityProperty(t *testing.T) {
	eps := map[string]struct {
		ep *Endpoint
		hp *HostPort
	}{}
	for _, cfg := range allModes() {
		ep, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		eps[cfg.Mode.String()+cfg.RX.String()] = struct {
			ep *Endpoint
			hp *HostPort
		}{ep, NewHostPort(ep.Shared())}
	}
	f := func(payload []byte, pick uint8) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		if len(payload) > 1500 {
			payload = payload[:1500]
		}
		for _, pair := range eps {
			if err := pair.ep.Send(payload); err != nil {
				return false
			}
			buf := make([]byte, pair.ep.Config().FrameCap())
			n, err := pair.hp.Pop(buf)
			if err != nil || !bytes.Equal(buf[:n], payload) {
				return false
			}
			if err := pair.hp.Push(payload); err != nil {
				return false
			}
			rx, err := pair.ep.Recv()
			if err != nil || !bytes.Equal(rx.Bytes(), payload) {
				return false
			}
			rx.Release()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPump(t *testing.T) {
	// Guest sender + host popper and host pusher + guest receiver, all
	// concurrent; exercises the atomic index publication under -race.
	cfg := DefaultConfig()
	ep, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	const frames = 5000

	errc := make(chan error, 4)
	go func() { // guest TX
		f := frame(700, 1)
		for i := 0; i < frames; {
			switch err := ep.Send(f); {
			case err == nil:
				i++
			case errors.Is(err, nic.ErrFull):
			default:
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	go func() { // host TX drain
		buf := make([]byte, cfg.FrameCap())
		for i := 0; i < frames; {
			switch _, err := hp.Pop(buf); {
			case err == nil:
				i++
			case errors.Is(err, nic.ErrEmpty):
			default:
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	go func() { // host RX inject
		f := frame(700, 2)
		for i := 0; i < frames; {
			switch err := hp.Push(f); {
			case err == nil:
				i++
			case errors.Is(err, nic.ErrFull):
			default:
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	go func() { // guest RX drain
		for i := 0; i < frames; {
			rx, err := ep.Recv()
			switch {
			case err == nil:
				rx.Release()
				i++
			case errors.Is(err, nic.ErrEmpty):
			default:
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < 4; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
