package virtio

import (
	"bytes"
	"errors"
	"testing"

	"confio/internal/nic"
)

// These tests mount the interface attacks from the paper's citations
// (VIA, COIN, Lefeuvre et al.) against the driver with and without the
// Figure-4 retrofits, demonstrating both that the unhardened driver is
// exploitable and that each retrofit closes its class.

func TestUsedLenLieLeaksNeighbourWithoutChecks(t *testing.T) {
	d, dv := pair(t, NoHardening())
	// Plant a secret in the buffer adjacent to buffer of slot id0.
	secret := []byte("ADJACENT-TENANT-SECRET")
	_, rx := dv.Queues()

	if err := dv.Push(mkFrame(100, 1)); err != nil {
		t.Fatal(err)
	}
	// Identify which slot the device used (first avail entry).
	id, _ := rx.UsedEntry(0)
	neighbour := (id + 1) % uint32(d.cfg.QueueSize)
	rx.Bufs().WriteAt(secret, rx.BufAddr(int(neighbour)))

	// Malicious device: overwrite the used element's length so it spills
	// into the neighbour buffer.
	lie := uint32(d.cfg.BufSize + 64)
	rx.PublishUsed(0, id, lie)
	rx.ForgeUsedIdx(1)

	f, err := d.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Bytes()) != int(lie) {
		t.Fatalf("unhardened driver did not trust the lied length: got %d", len(f.Bytes()))
	}
	if !bytes.Contains(f.Bytes(), secret) {
		t.Fatal("expected neighbour leak in unhardened driver")
	}
	if d.Stats().TrustedUnchecked == 0 {
		t.Fatal("unchecked trust not accounted")
	}
}

func TestUsedLenLieBlockedByChecks(t *testing.T) {
	d, dv := pair(t, Hardening{Checks: true})
	if err := dv.Push(mkFrame(100, 1)); err != nil {
		t.Fatal(err)
	}
	_, rx := dv.Queues()
	id, _ := rx.UsedEntry(0)
	rx.PublishUsed(0, id, uint32(d.cfg.BufSize+64))
	rx.ForgeUsedIdx(1)

	if _, err := d.Recv(); !errors.Is(err, nic.ErrEmpty) {
		t.Fatalf("hardened driver delivered or died: %v", err)
	}
	if d.Stats().Blocked == 0 {
		t.Fatal("block not accounted")
	}
}

func TestPayloadDoubleFetchWithoutCopies(t *testing.T) {
	// Legacy zero-copy receive: the frame is a view into device-writable
	// memory, so the device can rewrite it after the driver validated it.
	d, dv := pair(t, Hardening{Checks: true}) // checks on, copies off
	if err := dv.Push([]byte("GET /private HTTP/1.1")); err != nil {
		t.Fatal(err)
	}
	f, err := d.Recv()
	if err != nil {
		t.Fatal(err)
	}
	before := string(f.Bytes())
	// Device rewrites the buffer after delivery (TOCTOU).
	_, rx := dv.Queues()
	id, _ := rx.UsedEntry(0)
	rx.Bufs().WriteAt([]byte("GET /pwned!! HTTP/1.1"), rx.BufAddr(int(id)))
	after := string(f.Bytes())
	if before == after {
		t.Fatal("zero-copy view should observe the device rewrite (double fetch)")
	}

	// The copies retrofit closes the window.
	d2, dv2 := pair(t, Hardening{Checks: true, Copies: true})
	if err := dv2.Push([]byte("GET /private HTTP/1.1")); err != nil {
		t.Fatal(err)
	}
	f2, err := d2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	_, rx2 := dv2.Queues()
	id2, _ := rx2.UsedEntry(0)
	rx2.Bufs().WriteAt([]byte("GET /pwned!! HTTP/1.1"), rx2.BufAddr(int(id2)))
	if string(f2.Bytes()) != "GET /private HTTP/1.1" {
		t.Fatal("copied frame affected by device rewrite")
	}
}

func TestForgedUsedIdxOverclaim(t *testing.T) {
	// Hardened: fatal. Unhardened: trusted (capped), accounted.
	dh, _ := pair(t, Hardening{Checks: true})
	txq, _ := dhQueues(dh)
	txq.ForgeUsedIdx(uint64(dh.cfg.QueueSize) * 10)
	if err := dh.Send(mkFrame(64, 1)); !errors.Is(err, ErrNeedsReset) {
		t.Fatalf("hardened: want ErrNeedsReset, got %v", err)
	}
	if dh.Dead() == nil {
		t.Fatal("hardened driver not dead")
	}

	du, _ := pair(t, NoHardening())
	txu, _ := dhQueues(du)
	txu.ForgeUsedIdx(uint64(du.cfg.QueueSize) * 10)
	if err := du.Send(mkFrame(64, 1)); err != nil {
		t.Fatalf("unhardened send: %v", err)
	}
	if du.Stats().TrustedUnchecked == 0 {
		t.Fatal("overclaim trust not accounted")
	}
}

// dhQueues exposes a driver's queues for attack staging.
func dhQueues(d *Driver) (tx, rx *Queue) { return d.tx, d.rx }

func TestForgedUsedIdCorruptsFreeListWithoutChecks(t *testing.T) {
	d, dv := pair(t, NoHardening())
	buf := make([]byte, d.cfg.BufSize)

	// Two frames in flight.
	if err := d.Send(mkFrame(64, 0xA)); err != nil {
		t.Fatal(err)
	}
	if err := d.Send(mkFrame(64, 0xB)); err != nil {
		t.Fatal(err)
	}
	tx, _ := dv.Queues()
	// Malicious device completes slot 0 twice (never slot 1).
	id0 := tx.AvailEntry(0)
	tx.PublishUsed(0, uint32(id0), 0)
	tx.PublishUsed(1, uint32(id0), 0)

	// The unhardened driver frees slot id0 twice: its free list now
	// hands the same buffer to two subsequent sends, cross-wiring them.
	fA := mkFrame(700, 0xC)
	fB := mkFrame(700, 0xD)
	if err := d.Send(fA); err != nil {
		t.Fatal(err)
	}
	if err := d.Send(fB); err != nil {
		t.Fatal(err)
	}
	if d.Stats().TrustedUnchecked == 0 {
		t.Fatal("double free not accounted")
	}
	// The device pops the two new frames; with a corrupted free list
	// both descriptors name the same buffer, so the first transmitted
	// frame is overwritten by the second: fA is lost.
	var got [][]byte
	for {
		n, err := dv.Pop(buf)
		if err != nil {
			break
		}
		cp := make([]byte, n)
		copy(cp, buf[:n])
		got = append(got, cp)
	}
	foundA := false
	for _, g := range got {
		if bytes.Equal(g, fA) {
			foundA = true
		}
	}
	if foundA {
		t.Fatal("expected cross-wiring to destroy frame A in the unhardened driver")
	}
}

func TestForgedUsedIdBlockedByChecks(t *testing.T) {
	d, dv := pair(t, Hardening{Checks: true})
	if err := d.Send(mkFrame(64, 0xA)); err != nil {
		t.Fatal(err)
	}
	if err := d.Send(mkFrame(64, 0xB)); err != nil {
		t.Fatal(err)
	}
	tx, _ := dv.Queues()
	id0 := tx.AvailEntry(0)
	tx.PublishUsed(0, uint32(id0), 0)
	tx.PublishUsed(1, uint32(id0), 0) // duplicate completion

	// Trigger reap.
	if err := d.Send(mkFrame(64, 0xC)); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Blocked == 0 {
		t.Fatal("duplicate completion not blocked")
	}
	// No double free: the forged early completion may drop frame A (an
	// availability effect, out of the threat model), but frames B and C
	// must not be cross-wired onto one buffer.
	buf := make([]byte, d.cfg.BufSize)
	frames := map[byte]bool{}
	for {
		n, err := dv.Pop(buf)
		if err != nil {
			break
		}
		frames[buf[:n][0]] = true
	}
	if !frames[0xB] || !frames[0xC] {
		t.Fatalf("hardened driver cross-wired frames: %v", frames)
	}
}

func TestStaleMemoryLeakWithoutMemInit(t *testing.T) {
	// Without MemInit, a posted receive buffer still holds whatever the
	// guest last stored there — readable by the device before it writes.
	d, dv := pair(t, NoHardening())
	_, rx := dv.Queues()
	// Simulate prior sensitive guest data in buffer 3's memory.
	secret := []byte("stale-guest-secret")
	rx.Bufs().WriteAt(secret, rx.BufAddr(3))

	// Recycle buffer 3 through a receive: push frames until slot 3 used.
	var fr *RxFrame
	for i := 0; ; i++ {
		if err := dv.Push(mkFrame(8, byte(i))); err != nil {
			t.Fatal(err)
		}
		f, err := d.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if rf := f.(*RxFrame); rf.id == 3 {
			fr = rf
			break
		}
		f.Release()
	}
	fr.Release() // reposts slot 3 without zeroing

	leak := make([]byte, len(secret))
	rx.Bufs().ReadAt(leak, rx.BufAddr(3)+8) // device peeks past the 8-byte frame
	if !bytes.Contains(append([]byte{0}, leak...), secret[8:]) {
		t.Log("note: short frame overwrote part of the secret; checking tail")
	}
	tail := make([]byte, len(secret)-8)
	rx.Bufs().ReadAt(tail, rx.BufAddr(3)+8)
	if !bytes.Equal(tail, secret[8:]) {
		t.Fatal("expected stale bytes visible to device without MemInit")
	}

	// With MemInit the reposted buffer is scrubbed.
	d2, dv2 := pair(t, Hardening{MemInit: true})
	_, rx2 := dv2.Queues()
	rx2.Bufs().WriteAt(secret, rx2.BufAddr(3))
	var fr2 *RxFrame
	for i := 0; ; i++ {
		if err := dv2.Push(mkFrame(8, byte(i))); err != nil {
			t.Fatal(err)
		}
		f, err := d2.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if rf := f.(*RxFrame); rf.id == 3 {
			fr2 = rf
			break
		}
		f.Release()
	}
	fr2.Release()
	tail2 := make([]byte, len(secret)-8)
	rx2.Bufs().ReadAt(tail2, rx2.BufAddr(3)+8)
	if bytes.Equal(tail2, secret[8:]) {
		t.Fatal("MemInit did not scrub the reposted buffer")
	}
}

func TestEventIdxSuppresssKicks(t *testing.T) {
	// Event-idx pays off under batching: only the empty->nonempty
	// transition kicks. The restrict-features retrofit strips it and
	// kicks on every send.
	run := func(h Hardening) uint64 {
		cfg := DefaultConfig()
		cfg.WantFeatures |= FeatEventIdx
		cfg.Hardening = h
		d, dv, err := NewPair(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		base := d.Stats().Kicks // setup kicks (rx posts)
		buf := make([]byte, cfg.BufSize)
		for batch := 0; batch < 4; batch++ {
			for i := 0; i < 32; i++ {
				if err := d.Send(mkFrame(64, byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 32; i++ {
				if _, err := dv.Pop(buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		return d.Stats().Kicks - base
	}
	withEvent := run(Hardening{})
	withoutEvent := run(Hardening{RestrictFeatures: true})
	if withoutEvent <= withEvent {
		t.Fatalf("restricting event idx should cost kicks: %d vs %d", withoutEvent, withEvent)
	}
	if withEvent != 4 {
		t.Fatalf("event idx should kick once per batch: %d", withEvent)
	}
}
