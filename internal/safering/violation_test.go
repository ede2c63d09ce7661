package safering

import (
	"errors"
	"testing"

	"confio/internal/platform"
)

// These tests play the malicious host directly against the shared state,
// which is exactly the access a compromised hypervisor has. Each protocol
// violation must be detected and must be *fatal* (stateless principle: no
// error recovery sub-protocol to exploit).

func TestHostConsRunsAheadIsFatal(t *testing.T) {
	ep, _ := New(DefaultConfig(), nil)
	// Host claims to have consumed a TX entry that was never produced.
	ep.Shared().TX.Indexes().StoreCons(5)
	err := ep.Send(frame(64, 1))
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("want ErrProtocol, got %v", err)
	}
	if err := ep.Send(frame(64, 1)); !errors.Is(err, ErrDead) {
		t.Fatalf("endpoint not dead after violation: %v", err)
	}
	if ep.Dead() == nil {
		t.Fatal("Dead() nil")
	}
}

func TestHostConsRunsBackwardsIsFatal(t *testing.T) {
	ep, _ := New(DefaultConfig(), nil)
	hp := NewHostPort(ep.Shared())
	buf := make([]byte, ep.Config().FrameCap())
	for i := 0; i < 3; i++ {
		if err := ep.Send(frame(64, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := hp.Pop(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := ep.Reap(); err != nil {
		t.Fatal(err)
	}
	ep.Shared().TX.Indexes().StoreCons(1) // rewind
	if err := ep.Reap(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("rewound consumer index: %v", err)
	}
}

func TestHostProdOverclaimIsFatal(t *testing.T) {
	ep, _ := New(DefaultConfig(), nil)
	// Host claims more outstanding RX entries than the ring holds.
	ep.Shared().RXUsed.Indexes().StoreProd(uint64(ep.Config().Slots) + 1)
	if _, err := ep.Recv(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("want ErrProtocol, got %v", err)
	}
	if _, err := ep.Recv(); !errors.Is(err, ErrDead) {
		t.Fatal("endpoint not dead")
	}
}

func TestHostRxLengthLieIsFatal(t *testing.T) {
	ep, _ := New(DefaultConfig(), nil) // inline mode
	sh := ep.Shared()
	// Host fabricates an RX descriptor with an absurd length.
	sh.RXUsed.WriteDesc(0, Desc{Len: 1 << 30, Kind: KindInline})
	sh.RXUsed.Indexes().StoreProd(1)
	if _, err := ep.Recv(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("want ErrProtocol, got %v", err)
	}
}

func TestHostRxZeroLengthIsFatal(t *testing.T) {
	ep, _ := New(DefaultConfig(), nil)
	sh := ep.Shared()
	sh.RXUsed.WriteDesc(0, Desc{Len: 0, Kind: KindInline})
	sh.RXUsed.Indexes().StoreProd(1)
	if _, err := ep.Recv(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("want ErrProtocol, got %v", err)
	}
}

func TestHostReplaysSlabInUseIsFatal(t *testing.T) {
	// Revoke mode: between Recv and Release the guest owns the slab. A
	// replayed completion naming that slab is a use-after-free attempt
	// through the interface and must be fatal.
	cfg := cfgFor(SharedArea, Revoke)
	ep, _ := New(cfg, nil)
	hp := NewHostPort(ep.Shared())
	sh := ep.Shared()
	if err := hp.Push(frame(100, 1)); err != nil {
		t.Fatal(err)
	}
	rx, err := ep.Recv() // guest now owns the slab, not yet released
	if err != nil {
		t.Fatal(err)
	}
	slabDesc := sh.RXUsed.ReadDesc(0)
	sh.RXUsed.WriteDesc(1, slabDesc) // replay the completed descriptor
	sh.RXUsed.Indexes().StoreProd(2)
	if _, err := ep.Recv(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("replayed slab completion: %v", err)
	}
	_ = rx
}

func TestGuestSideViolationsPoisonHostPort(t *testing.T) {
	ep, _ := New(DefaultConfig(), nil)
	hp := NewHostPort(ep.Shared())
	// "Guest" (or rather, an entity with guest access) publishes a
	// producer index claiming more than the ring size.
	ep.Shared().TX.Indexes().StoreProd(uint64(ep.Config().Slots) + 2)
	buf := make([]byte, ep.Config().FrameCap())
	if _, err := hp.Pop(buf); !errors.Is(err, ErrProtocol) {
		t.Fatalf("host accepted overclaimed producer: %v", err)
	}
	if _, err := hp.Pop(buf); !errors.Is(err, ErrDead) {
		t.Fatal("host port not poisoned")
	}
	if hp.Dead() == nil {
		t.Fatal("Dead() nil")
	}
}

func TestHostDetectsBadTxDescriptor(t *testing.T) {
	ep, _ := New(DefaultConfig(), nil)
	hp := NewHostPort(ep.Shared())
	sh := ep.Shared()
	// Forged TX descriptor: oversized length.
	sh.TX.WriteDesc(0, Desc{Len: 1 << 20, Kind: KindInline})
	sh.TX.Indexes().StoreProd(1)
	buf := make([]byte, ep.Config().FrameCap())
	if _, err := hp.Pop(buf); !errors.Is(err, ErrProtocol) {
		t.Fatalf("host accepted oversized TX len: %v", err)
	}
}

func TestHostDetectsKindMismatch(t *testing.T) {
	ep, _ := New(DefaultConfig(), nil)
	hp := NewHostPort(ep.Shared())
	sh := ep.Shared()
	sh.TX.WriteDesc(0, Desc{Len: 64, Kind: KindShared}) // wrong kind for inline deployment
	sh.TX.Indexes().StoreProd(1)
	buf := make([]byte, ep.Config().FrameCap())
	if _, err := hp.Pop(buf); !errors.Is(err, ErrProtocol) {
		t.Fatalf("host accepted kind mismatch: %v", err)
	}
}

func TestHostDetectsBadIndirectSegments(t *testing.T) {
	cfg := cfgFor(Indirect, CopyOut)
	buf := make([]byte, cfg.FrameCap())
	// Each case forges entry 0 (indirect-table offset -> u64 word) under a
	// descriptor claiming 100 bytes, on a fresh pair.
	for _, tc := range []struct {
		name  string
		words map[uint64]uint64
	}{
		{"no segments", map[uint64]uint64{0: 0, 16: 0, 24: 100}},
		{"nine segments", map[uint64]uint64{0: 9, 16: 0, 24: 100}},
		{"length short of the descriptor", map[uint64]uint64{0: 1, 16: 0, 24: 50}},
		// Two in-bounds segments summing to the descriptor length: a frame
		// never needs a second slab, so the honest host refuses the shape.
		{"two segments summing to the length", map[uint64]uint64{0: 2, 16: 0, 24: 50, 32: 1, 40: 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep, _ := New(cfg, nil)
			hp := NewHostPort(ep.Shared())
			sh := ep.Shared()
			for off, v := range tc.words {
				sh.TXInd.SetU64(off, v)
			}
			sh.TX.WriteDesc(0, Desc{Len: 100, Kind: KindIndirect, Ref: 0})
			sh.TX.Indexes().StoreProd(1)
			if _, err := hp.Pop(buf); !errors.Is(err, ErrProtocol) {
				t.Fatalf("host accepted the forged entry: %v", err)
			}
		})
	}
}

func TestMaskedSlabRefCannotEscape(t *testing.T) {
	// A huge slab reference in a used descriptor masks into range: it can
	// never reach memory outside the data area. In copy mode the result
	// is at worst a garbage frame (the host can always inject garbage at
	// L2 — content integrity is L5's job); memory safety must hold.
	cfg := cfgFor(SharedArea, CopyOut)
	ep, _ := New(cfg, nil)
	sh := ep.Shared()
	sh.RXUsed.WriteDesc(0, Desc{Len: 64, Kind: KindShared, Ref: 0xFFFFFFFFFFFF0000})
	sh.RXUsed.Indexes().StoreProd(1)
	rx, err := ep.Recv()
	if err != nil {
		t.Fatalf("masked forged ref must deliver safely: %v", err)
	}
	if len(rx.Bytes()) != 64 {
		t.Fatalf("frame length %d", len(rx.Bytes()))
	}
	rx.Release()

	// In revoke mode the same forgery while the named slab is guest-held
	// is a use-after-free attempt and is fatal.
	cfg2 := cfgFor(SharedArea, Revoke)
	ep2, _ := New(cfg2, nil)
	hp2 := NewHostPort(ep2.Shared())
	if err := hp2.Push(frame(64, 1)); err != nil {
		t.Fatal(err)
	}
	rx2, err := ep2.Recv() // slab now guest-held
	if err != nil {
		t.Fatal(err)
	}
	held := ep2.Shared().RXUsed.ReadDesc(0).Ref
	forged := 0xFFFFFFFF00000000 | held // masks to the held slab
	ep2.Shared().RXUsed.WriteDesc(1, Desc{Len: 64, Kind: KindShared, Ref: forged})
	ep2.Shared().RXUsed.Indexes().StoreProd(2)
	if _, err := ep2.Recv(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("forged ref to guest-held slab: %v", err)
	}
	_ = rx2
}

func TestAdversarialHostBatchReplayIsFatalMidBatch(t *testing.T) {
	// The batched receive path must apply the same replay detection per
	// slot that Recv does: a burst of two honest completions followed by a
	// replay of the first delivers exactly the honest frames, reports the
	// violation, and leaves the endpoint dead. Revoke mode so the replayed
	// slab is guest-held at detection time (a use-after-free attempt).
	cfg := cfgFor(SharedArea, Revoke)
	ep, _ := New(cfg, nil)
	hp := NewHostPort(ep.Shared())
	sh := ep.Shared()
	honest := [][]byte{frame(100, 1), frame(150, 2)}
	if n, err := hp.PushBatch(honest); err != nil || n != 2 {
		t.Fatalf("PushBatch = %d, %v", n, err)
	}
	sh.RXUsed.WriteDesc(2, sh.RXUsed.ReadDesc(0)) // replay the first completion
	sh.RXUsed.Indexes().StoreProd(3)

	out := make([]*RxFrame, 8)
	n, err := ep.RecvBatch(out)
	if n != 2 {
		t.Fatalf("delivered %d frames before the replay, want 2", n)
	}
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("replayed completion mid-batch: %v, want ErrProtocol", err)
	}
	for i := 0; i < n; i++ {
		if got := out[i].Bytes(); len(got) != len(honest[i]) {
			t.Fatalf("honest frame %d length %d, want %d", i, len(got), len(honest[i]))
		}
	}
	if _, err := ep.RecvBatch(out); !errors.Is(err, ErrDead) {
		t.Fatalf("RecvBatch after violation: %v, want ErrDead", err)
	}
	if _, err := ep.SendBatch([][]byte{frame(64, 0)}); !errors.Is(err, ErrDead) {
		t.Fatalf("SendBatch after violation: %v, want ErrDead", err)
	}
	if ep.Dead() == nil {
		t.Fatal("Dead() nil after mid-batch violation")
	}
}

func TestRevokedSlabPushFailsHonestHost(t *testing.T) {
	// If the guest's posted-free bookkeeping and the window sharing state
	// ever disagree, the honest host hits ErrRevoked and reports it.
	cfg := cfgFor(SharedArea, Revoke)
	ep, _ := New(cfg, nil)
	hp := NewHostPort(ep.Shared())
	// Sabotage: revoke a page that is posted free (simulates a buggy or
	// malicious *guest* — host must handle it, not crash).
	ep.Shared().RXData.Revoke(0, platform.PageSize)
	var sawErr bool
	for i := 0; i < ep.Config().Slots; i++ {
		if err := hp.Push(frame(64, 1)); err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("host never hit the revoked slab")
	}
}
