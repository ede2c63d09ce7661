package safering

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"confio/internal/platform"
)

// smallCfg shrinks the ring so batch tests wrap it quickly.
func smallCfg(mode DataMode, rx RXPolicy) DeviceConfig {
	cfg := cfgFor(mode, rx)
	cfg.Slots = 8
	return cfg
}

// TestBatchRoundTripWrapAround pushes batches whose size does not divide
// the slot count through both directions of every mode, so the staged
// slots repeatedly straddle the ring wrap.
func TestBatchRoundTripWrapAround(t *testing.T) {
	for _, base := range allModes() {
		cfg := base
		cfg.Slots = 8
		t.Run(fmt.Sprintf("%v-%v", cfg.Mode, cfg.RX), func(t *testing.T) {
			ep, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			hp := NewHostPort(ep.Shared())
			const batch = 5 // does not divide 8: every round moves the wrap point
			bufs := make([][]byte, batch)
			for i := range bufs {
				bufs[i] = make([]byte, cfg.FrameCap())
			}
			lens := make([]int, batch)
			out := make([]*RxFrame, batch)
			for round := 0; round < 4*cfg.Slots; round++ {
				frames := make([][]byte, batch)
				for i := range frames {
					frames[i] = frame(64+((round*batch+i)%900), byte(round*batch+i))
				}

				// Guest -> host.
				if n, err := ep.SendBatch(frames); err != nil || n != batch {
					t.Fatalf("round %d: SendBatch = %d, %v", round, n, err)
				}
				n, err := hp.PopBatch(bufs, lens)
				if err != nil || n != batch {
					t.Fatalf("round %d: PopBatch = %d, %v", round, n, err)
				}
				for i := 0; i < n; i++ {
					if !bytes.Equal(bufs[i][:lens[i]], frames[i]) {
						t.Fatalf("round %d: tx frame %d corrupted in transit", round, i)
					}
				}

				// Host -> guest.
				if n, err := hp.PushBatch(frames); err != nil || n != batch {
					t.Fatalf("round %d: PushBatch = %d, %v", round, n, err)
				}
				n, err = ep.RecvBatch(out)
				if err != nil || n != batch {
					t.Fatalf("round %d: RecvBatch = %d, %v", round, n, err)
				}
				for i := 0; i < n; i++ {
					if !bytes.Equal(out[i].Bytes(), frames[i]) {
						t.Fatalf("round %d: rx frame %d corrupted in transit", round, i)
					}
					out[i].Release()
				}
			}
			if _, err := hp.Pop(bufs[0]); !errors.Is(err, ErrRingEmpty) {
				t.Fatalf("tx ring should drain empty: %v", err)
			}
			if _, err := ep.RecvBatch(out); !errors.Is(err, ErrRingEmpty) {
				t.Fatalf("rx ring should drain empty: %v", err)
			}
		})
	}
}

// TestSendBatchPartialOnRingFull: a batch larger than the remaining ring
// capacity is accepted partially with a nil error; a batch against a full
// ring reports (0, ErrRingFull).
func TestSendBatchPartialOnRingFull(t *testing.T) {
	for _, base := range allModes() {
		cfg := base
		cfg.Slots = 8
		t.Run(fmt.Sprintf("%v-%v", cfg.Mode, cfg.RX), func(t *testing.T) {
			ep, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			hp := NewHostPort(ep.Shared())
			frames := make([][]byte, cfg.Slots+4)
			for i := range frames {
				frames[i] = frame(128, byte(i))
			}
			n, err := ep.SendBatch(frames)
			if err != nil || n != cfg.Slots {
				t.Fatalf("overfull batch: n=%d err=%v, want (%d, nil)", n, err, cfg.Slots)
			}
			if n, err := ep.SendBatch(frames); n != 0 || !errors.Is(err, ErrRingFull) {
				t.Fatalf("batch against full ring: n=%d err=%v, want (0, ErrRingFull)", n, err)
			}
			// The host consumes three frames; exactly that much capacity
			// reopens on the next batch (via the amortized reap).
			bufs := make([][]byte, 3)
			for i := range bufs {
				bufs[i] = make([]byte, cfg.FrameCap())
			}
			lens := make([]int, 3)
			if n, err := hp.PopBatch(bufs, lens); err != nil || n != 3 {
				t.Fatalf("PopBatch = %d, %v", n, err)
			}
			if n, err := ep.SendBatch(frames); err != nil || n != 3 {
				t.Fatalf("batch after partial drain: n=%d err=%v, want (3, nil)", n, err)
			}
		})
	}
}

// TestRecvBatchMidBatchViolation: a malformed completion in the middle of
// an otherwise valid burst delivers the frames before it, reports the
// fatal error, and leaves the endpoint dead.
func TestRecvBatchMidBatchViolation(t *testing.T) {
	cfg := smallCfg(Inline, CopyOut)
	ep, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	want := [][]byte{frame(100, 1), frame(200, 2)}
	if n, err := hp.PushBatch(want); err != nil || n != 2 {
		t.Fatalf("PushBatch = %d, %v", n, err)
	}
	// The adversarial host appends a zero-length completion to the burst.
	sh := ep.Shared()
	sh.RXUsed.WriteDesc(2, Desc{Len: 0, Kind: KindInline})
	sh.RXUsed.Indexes().StoreProd(3)

	out := make([]*RxFrame, 8)
	n, err := ep.RecvBatch(out)
	if n != 2 {
		t.Fatalf("accepted %d frames before the violation, want 2", n)
	}
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("want ErrProtocol alongside the partial batch, got %v", err)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(out[i].Bytes(), want[i]) {
			t.Fatalf("accepted frame %d corrupted", i)
		}
	}
	if _, err := ep.RecvBatch(out); !errors.Is(err, ErrDead) {
		t.Fatalf("RecvBatch after violation: %v, want ErrDead", err)
	}
	if _, err := ep.Recv(); !errors.Is(err, ErrDead) {
		t.Fatalf("Recv after violation: %v, want ErrDead", err)
	}
	if err := ep.Send(frame(64, 0)); !errors.Is(err, ErrDead) {
		t.Fatalf("Send after violation: %v, want ErrDead", err)
	}
}

// TestBatchOfOneEquivalence: a batch of one must be indistinguishable from
// the single-frame calls — same bytes delivered, same metered cost.
func TestBatchOfOneEquivalence(t *testing.T) {
	for _, cfg := range allModes() {
		t.Run(fmt.Sprintf("%v-%v", cfg.Mode, cfg.RX), func(t *testing.T) {
			roundTrip := func(batched bool) (platform.Costs, []byte, []byte) {
				var m platform.Meter
				ep, err := New(cfg, &m)
				if err != nil {
					t.Fatal(err)
				}
				hp := NewHostPort(ep.Shared())
				f := frame(900, 7)
				buf := make([]byte, cfg.FrameCap())
				before := m.Snapshot()
				var popped, received []byte
				if batched {
					if n, err := ep.SendBatch([][]byte{f}); err != nil || n != 1 {
						t.Fatalf("SendBatch = %d, %v", n, err)
					}
					lens := []int{0}
					if n, err := hp.PopBatch([][]byte{buf}, lens); err != nil || n != 1 {
						t.Fatalf("PopBatch = %d, %v", n, err)
					}
					popped = append([]byte(nil), buf[:lens[0]]...)
					if n, err := hp.PushBatch([][]byte{f}); err != nil || n != 1 {
						t.Fatalf("PushBatch = %d, %v", n, err)
					}
					out := make([]*RxFrame, 1)
					n, err := ep.RecvBatch(out)
					if err != nil || n != 1 {
						t.Fatalf("RecvBatch = %d, %v", n, err)
					}
					received = append([]byte(nil), out[0].Bytes()...)
					out[0].Release()
				} else {
					if err := ep.Send(f); err != nil {
						t.Fatalf("Send: %v", err)
					}
					n, err := hp.Pop(buf)
					if err != nil {
						t.Fatalf("Pop: %v", err)
					}
					popped = append([]byte(nil), buf[:n]...)
					if err := hp.Push(f); err != nil {
						t.Fatalf("Push: %v", err)
					}
					fr, err := ep.Recv()
					if err != nil {
						t.Fatalf("Recv: %v", err)
					}
					received = append([]byte(nil), fr.Bytes()...)
					fr.Release()
				}
				return m.Snapshot().Sub(before), popped, received
			}

			singleCosts, singlePop, singleRecv := roundTrip(false)
			batchCosts, batchPop, batchRecv := roundTrip(true)
			if singleCosts != batchCosts {
				t.Errorf("batch-of-one cost differs from single-frame path:\n single: %v\n batch:  %v",
					singleCosts, batchCosts)
			}
			if !bytes.Equal(singlePop, batchPop) || !bytes.Equal(singleRecv, batchRecv) {
				t.Error("batch-of-one delivered different bytes than single-frame path")
			}
		})
	}
}

// TestTXSlabLeakOnStageFault is the regression test for the shared-area
// staging leak: a failure after Alloc must return the slab to the arena,
// or every failed send permanently shrinks the TX data area until the
// endpoint wedges at ErrRingFull.
func TestTXSlabLeakOnStageFault(t *testing.T) {
	cfg := cfgFor(SharedArea, CopyOut)
	ep, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	arena := ep.Shared().TXData
	free := arena.FreeSlabs()

	txStageFault = func() error { return errors.New("injected stage fault") }
	defer func() { txStageFault = nil }()

	for i := 0; i < 2*cfg.Slots; i++ { // far more failures than slabs
		if err := ep.Send(frame(128, byte(i))); err == nil {
			t.Fatal("Send succeeded despite injected stage fault")
		} else if errors.Is(err, ErrRingFull) {
			t.Fatalf("attempt %d: TX wedged at ErrRingFull: the arena leaked slabs", i)
		}
	}
	if got := arena.FreeSlabs(); got != free {
		t.Fatalf("free slabs after failed sends: %d, want %d (leak)", got, free)
	}

	// The batched path shares the staging helper: same guarantee.
	if n, err := ep.SendBatch([][]byte{frame(128, 1), frame(128, 2)}); err == nil || n != 0 {
		t.Fatalf("SendBatch under fault: n=%d err=%v, want (0, non-nil)", n, err)
	}
	if got := arena.FreeSlabs(); got != free {
		t.Fatalf("free slabs after failed batch: %d, want %d (leak)", got, free)
	}

	// The fault is transient, not fatal: the endpoint recovers fully.
	txStageFault = nil
	hp := NewHostPort(ep.Shared())
	buf := make([]byte, cfg.FrameCap())
	for i := 0; i < 3*cfg.Slots; i++ {
		if err := ep.Send(frame(128, byte(i))); err != nil {
			t.Fatalf("send %d after fault cleared: %v", i, err)
		}
		if _, err := hp.Pop(buf); err != nil {
			t.Fatalf("pop %d after fault cleared: %v", i, err)
		}
	}
}

// TestReleaseConcurrentIdempotent hammers RxFrame.Release from several
// goroutines. Exactly one caller may perform the release: a double
// release would repost a revoked slab twice (protocol corruption) or
// double-insert a pool buffer. Run under -race this also proves the guard
// itself is sound.
func TestReleaseConcurrentIdempotent(t *testing.T) {
	for _, cfg := range []DeviceConfig{cfgFor(SharedArea, Revoke), cfgFor(Inline, CopyOut)} {
		t.Run(fmt.Sprintf("%v-%v", cfg.Mode, cfg.RX), func(t *testing.T) {
			ep, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			hp := NewHostPort(ep.Shared())
			const rounds = 64
			for i := 0; i < rounds; i++ {
				if err := hp.Push(frame(256, byte(i))); err != nil {
					t.Fatalf("push %d: %v", i, err)
				}
				fr, err := ep.Recv()
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						fr.Release()
					}()
				}
				wg.Wait()
			}
			if cfg.RX == Revoke {
				// Initial posting plus exactly one repost per frame; any
				// double release would overshoot.
				want := uint64(cfg.Slots + rounds)
				if ep.rxFree.Head() != want {
					t.Fatalf("free-ring head %d, want %d (release not idempotent)", ep.rxFree.Head(), want)
				}
			}
		})
	}
}

// TestBatchAmortizesPublication asserts the point of the batched datapath:
// at batch 16 the metered doorbell notifications and index publications
// per frame drop by at least 4x versus batch 1 (the measured ratio is 16x;
// the threshold leaves slack for datapath evolution).
func TestBatchAmortizesPublication(t *testing.T) {
	perFrame := func(cfg DeviceConfig, batch int) (notif, pub float64) {
		cfg.Notify = true
		var m platform.Meter
		ep, err := New(cfg, &m)
		if err != nil {
			t.Fatal(err)
		}
		hp := NewHostPort(ep.Shared())
		frames := make([][]byte, batch)
		for i := range frames {
			frames[i] = frame(256, byte(i))
		}
		bufs := make([][]byte, batch)
		for i := range bufs {
			bufs[i] = make([]byte, cfg.FrameCap())
		}
		lens := make([]int, batch)
		out := make([]*RxFrame, batch)
		const rounds = 16
		before := m.Snapshot()
		for r := 0; r < rounds; r++ {
			if n, err := ep.SendBatch(frames); err != nil || n != batch {
				t.Fatalf("SendBatch = %d, %v", n, err)
			}
			if n, err := hp.PopBatch(bufs, lens); err != nil || n != batch {
				t.Fatalf("PopBatch = %d, %v", n, err)
			}
			if n, err := hp.PushBatch(frames); err != nil || n != batch {
				t.Fatalf("PushBatch = %d, %v", n, err)
			}
			n, err := ep.RecvBatch(out)
			if err != nil || n != batch {
				t.Fatalf("RecvBatch = %d, %v", n, err)
			}
			for i := 0; i < n; i++ {
				out[i].Release()
			}
		}
		d := m.Snapshot().Sub(before)
		total := float64(2 * rounds * batch) // frames moved, both directions
		return float64(d.Notifications) / total, float64(d.IndexPublishes) / total
	}

	for _, cfg := range []DeviceConfig{
		cfgFor(Inline, CopyOut),
		cfgFor(SharedArea, CopyOut),
		cfgFor(Indirect, CopyOut),
	} {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			n1, p1 := perFrame(cfg, 1)
			n16, p16 := perFrame(cfg, 16)
			if n16 <= 0 || p16 <= 0 || n1 <= 0 || p1 <= 0 {
				t.Fatalf("meter recorded nothing: n1=%v p1=%v n16=%v p16=%v", n1, p1, n16, p16)
			}
			if ratio := n1 / n16; ratio < 4 {
				t.Errorf("notifications/frame: batch1=%v batch16=%v (ratio %.1fx, want >= 4x)", n1, n16, ratio)
			}
			if ratio := p1 / p16; ratio < 4 {
				t.Errorf("publications/frame: batch1=%v batch16=%v (ratio %.1fx, want >= 4x)", p1, p16, ratio)
			}
		})
	}
}

// TestBatchEdgeCases pins the degenerate-input contract of the batch API.
func TestBatchEdgeCases(t *testing.T) {
	cfg := smallCfg(Inline, CopyOut)
	ep, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())

	if n, err := ep.SendBatch(nil); n != 0 || err != nil {
		t.Errorf("SendBatch(nil) = %d, %v, want (0, nil)", n, err)
	}
	if n, err := ep.RecvBatch(nil); n != 0 || err != nil {
		t.Errorf("RecvBatch(nil) = %d, %v, want (0, nil)", n, err)
	}
	if n, err := hp.PushBatch(nil); n != 0 || err != nil {
		t.Errorf("PushBatch(nil) = %d, %v, want (0, nil)", n, err)
	}
	if n, err := hp.PopBatch(nil, nil); n != 0 || err != nil {
		t.Errorf("PopBatch(nil) = %d, %v, want (0, nil)", n, err)
	}

	// Any invalid frame rejects the whole batch before staging anything.
	bad := [][]byte{frame(64, 1), {}, frame(64, 2)}
	if n, err := ep.SendBatch(bad); n != 0 || !errors.Is(err, ErrFrameSize) {
		t.Errorf("SendBatch with empty frame = %d, %v, want (0, ErrFrameSize)", n, err)
	}
	over := [][]byte{frame(cfg.FrameCap()+1, 0)}
	if n, err := ep.SendBatch(over); n != 0 || !errors.Is(err, ErrFrameSize) {
		t.Errorf("SendBatch oversize = %d, %v, want (0, ErrFrameSize)", n, err)
	}
	if n, err := hp.PushBatch(over); n != 0 || !errors.Is(err, ErrFrameSize) {
		t.Errorf("PushBatch oversize = %d, %v, want (0, ErrFrameSize)", n, err)
	}

	// Mismatched lens slice is a caller bug, reported before any consumption.
	bufs := [][]byte{make([]byte, cfg.FrameCap()), make([]byte, cfg.FrameCap())}
	if _, err := hp.PopBatch(bufs, make([]int, 1)); err == nil {
		t.Error("PopBatch with short lens slice must error")
	}

	out := make([]*RxFrame, 4)
	if n, err := ep.RecvBatch(out); n != 0 || !errors.Is(err, ErrRingEmpty) {
		t.Errorf("RecvBatch on empty ring = %d, %v, want (0, ErrRingEmpty)", n, err)
	}
}

// TestScalarEqualsBatchOfOne is the differential check the scalar shims
// rest on: on twin devices, N scalar Send/Pop/Push/Recv laps and N
// batch-of-one laps charge identical model costs and carry identical
// payloads, in every data mode.
func TestScalarEqualsBatchOfOne(t *testing.T) {
	const laps = 100
	for _, cfg := range allModes() {
		t.Run(fmt.Sprintf("%v-%v", cfg.Mode, cfg.RX), func(t *testing.T) {
			type dev struct {
				m   platform.Meter
				ep  *Endpoint
				hp  *HostPort
				buf []byte
			}
			mk := func() *dev {
				d := &dev{buf: make([]byte, cfg.FrameCap())}
				ep, err := New(cfg, &d.m)
				if err != nil {
					t.Fatal(err)
				}
				d.ep, d.hp = ep, NewHostPort(ep.Shared())
				return d
			}
			scalar, batch := mk(), mk()
			if s, b := scalar.m.Snapshot(), batch.m.Snapshot(); s != b {
				t.Fatalf("twin devices differ before traffic: %+v vs %+v", s, b)
			}

			// Each lap returns what the host popped and what the guest
			// received.
			scalarLap := func(d *dev, f []byte) ([]byte, []byte) {
				if err := d.ep.Send(f); err != nil {
					t.Fatalf("Send: %v", err)
				}
				n, err := d.hp.Pop(d.buf)
				if err != nil {
					t.Fatalf("Pop: %v", err)
				}
				popped := append([]byte(nil), d.buf[:n]...)
				if err := d.hp.Push(f); err != nil {
					t.Fatalf("Push: %v", err)
				}
				rx, err := d.ep.Recv()
				if err != nil {
					t.Fatalf("Recv: %v", err)
				}
				defer rx.Release()
				return popped, append([]byte(nil), rx.Bytes()...)
			}
			batchLap := func(d *dev, f []byte) ([]byte, []byte) {
				if n, err := d.ep.SendBatch([][]byte{f}); n != 1 || err != nil {
					t.Fatalf("SendBatch = %d, %v", n, err)
				}
				lens := []int{0}
				if n, err := d.hp.PopBatch([][]byte{d.buf}, lens); n != 1 || err != nil {
					t.Fatalf("PopBatch = %d, %v", n, err)
				}
				popped := append([]byte(nil), d.buf[:lens[0]]...)
				if n, err := d.hp.PushBatch([][]byte{f}); n != 1 || err != nil {
					t.Fatalf("PushBatch = %d, %v", n, err)
				}
				out := make([]*RxFrame, 1)
				if n, err := d.ep.RecvBatch(out); n != 1 || err != nil {
					t.Fatalf("RecvBatch = %d, %v", n, err)
				}
				defer out[0].Release()
				return popped, append([]byte(nil), out[0].Bytes()...)
			}

			for i := 0; i < laps; i++ {
				f := frame(64+i*13%1400, byte(i))
				sp, sr := scalarLap(scalar, f)
				bp, br := batchLap(batch, f)
				if !bytes.Equal(sp, f) || !bytes.Equal(sr, f) || !bytes.Equal(bp, f) || !bytes.Equal(br, f) {
					t.Fatalf("lap %d: payload mismatch", i)
				}
				if s, b := scalar.m.Snapshot(), batch.m.Snapshot(); s != b {
					t.Fatalf("lap %d: scalar costs %+v != batch-of-one costs %+v", i, s, b)
				}
			}
			// An empty ring and a full ring read the same through both.
			if _, err := scalar.ep.Recv(); !errors.Is(err, ErrRingEmpty) {
				t.Fatalf("scalar Recv on empty ring: %v", err)
			}
			if _, err := scalar.hp.Pop(scalar.buf); !errors.Is(err, ErrRingEmpty) {
				t.Fatalf("scalar Pop on empty ring: %v", err)
			}
			f := frame(64, 1)
			for i := 0; i < cfg.Slots; i++ {
				if err := scalar.ep.Send(f); err != nil {
					t.Fatalf("fill %d: %v", i, err)
				}
			}
			if err := scalar.ep.Send(f); !errors.Is(err, ErrRingFull) {
				t.Fatalf("scalar Send on full ring: %v", err)
			}
		})
	}
}
