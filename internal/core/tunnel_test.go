package core

import (
	"bytes"
	"testing"

	"confio/internal/nic"
	"confio/internal/safering"
)

// TestTunnelDecapsulatesInPlace: RecvBatch dequeues into the caller's
// slice and decapsulates there. An undecryptable frame is dropped from the
// burst, the good one moves up, and the slot left behind is nil.
func TestTunnelDecapsulatesInPlace(t *testing.T) {
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	host := safering.NewHostPort(ep.Shared())
	tg, err := newTunnelNIC(ep.NIC(), hkdfLikeKey([]byte("in place")), nil)
	if err != nil {
		t.Fatal(err)
	}
	inner := bytes.Repeat([]byte{0xAB}, 300)
	copy(inner, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 2, 0, 0, 0, 0, 9, 0x88, 0xB6})
	good, err := tg.seal(inner)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), good...)
	forged[len(forged)-1] ^= 1
	for _, f := range [][]byte{forged, good} {
		if err := host.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]nic.Frame, 4)
	n, err := tg.RecvBatch(out)
	if n != 1 || err != nil {
		t.Fatalf("RecvBatch = (%d, %v), want the one good frame", n, err)
	}
	if !bytes.Equal(out[0].Bytes(), inner) {
		t.Fatal("the good frame did not decapsulate to what was sealed")
	}
	if out[1] != nil {
		t.Fatal("the dropped frame's slot was left set")
	}
	out[0].Release()
}

// TestTunnelAllocBudget pins what the tunnel costs the stack loop: an
// empty poll allocates nothing, and a one-frame SendBatch allocates the
// batch of outer frames and the outer frame, sealed in place — two; the
// budget of three leaves one for the nonce's entropy source.
func TestTunnelAllocBudget(t *testing.T) {
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := newTunnelNIC(ep.NIC(), hkdfLikeKey([]byte("budget")), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]nic.Frame, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		if n, _ := tg.RecvBatch(out); n != 0 {
			t.Fatal("frames on an idle ring")
		}
	}); allocs != 0 {
		t.Errorf("%.2f allocs per empty RecvBatch, want 0", allocs)
	}
	frame := bytes.Repeat([]byte{0xAB}, 1400)
	copy(frame, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 2, 0, 0, 0, 0, 9, 0x88, 0xB6})
	frames := [][]byte{frame}
	const runs = 8 // plus AllocsPerRun's warm-up call: well inside the ring
	allocs := testing.AllocsPerRun(runs, func() {
		if n, err := tg.SendBatch(frames); n != 1 || err != nil {
			t.Fatalf("SendBatch = (%d, %v)", n, err)
		}
	})
	t.Logf("one-frame SendBatch: %.0f allocs", allocs)
	if allocs > 3 {
		t.Errorf("%.2f allocs per one-frame SendBatch, want ≤ 3", allocs)
	}
}
