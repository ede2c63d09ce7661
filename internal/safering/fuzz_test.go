package safering

import (
	"errors"
	"testing"

	"confio/internal/nic"
	"confio/internal/platform"
)

// fuzzCfg is a small-ring variant of cfgFor so each fuzz iteration builds
// its endpoint cheaply.
func fuzzCfg(mode DataMode, rx RXPolicy) DeviceConfig {
	cfg := DefaultConfig()
	cfg.Slots = 8
	cfg.Mode = mode
	cfg.RX = rx
	if mode != Inline {
		cfg.SlotSize = 64
	}
	return cfg
}

// descBytes encodes a descriptor in its ring wire layout
// (Len u32 | Kind u32 | Ref u64, little-endian), for seeding.
func descBytes(d Desc) []byte {
	b := make([]byte, DescSize)
	b[0], b[1], b[2], b[3] = byte(d.Len), byte(d.Len>>8), byte(d.Len>>16), byte(d.Len>>24)
	b[4], b[5], b[6], b[7] = byte(d.Kind), byte(d.Kind>>8), byte(d.Kind>>16), byte(d.Kind>>24)
	for i := 0; i < 8; i++ {
		b[8+i] = byte(d.Ref >> (8 * i))
	}
	return b
}

// fuzzCfgSel maps a fuzzed selector onto the four allModes() configs.
func fuzzCfgSel(modeSel byte) DeviceConfig {
	switch modeSel % 4 {
	case 0:
		return fuzzCfg(Inline, CopyOut)
	case 1:
		return fuzzCfg(SharedArea, CopyOut)
	case 2:
		return fuzzCfg(SharedArea, Revoke)
	default:
		return fuzzCfg(Indirect, CopyOut)
	}
}

// decodeDesc reads a descriptor from its wire layout (the inverse of
// descBytes), zero-padding short input.
func decodeDesc(raw []byte) Desc {
	var db [DescSize]byte
	copy(db[:], raw)
	d := Desc{
		Len:  uint32(db[0]) | uint32(db[1])<<8 | uint32(db[2])<<16 | uint32(db[3])<<24,
		Kind: uint32(db[4]) | uint32(db[5])<<8 | uint32(db[6])<<16 | uint32(db[7])<<24,
	}
	for i := 0; i < 8; i++ {
		d.Ref |= uint64(db[8+i]) << (8 * i)
	}
	return d
}

// FuzzDescDecode drives Recv with arbitrary host-published state: a raw
// 16-byte descriptor stamped into every used-ring slot plus an arbitrary
// producer index. The contract under fuzzing is the paper's fail-dead
// receive discipline: every call yields a valid in-bounds frame,
// nic.ErrEmpty, or a fatal protocol violation after which the endpoint is
// dead — never a panic, an out-of-range access, or a quietly wrong frame.
func FuzzDescDecode(f *testing.F) {
	// Seeds from the internal/attack scenarios: index overclaim, length
	// lie, forged slab handle, and replayed completion.
	for _, mode := range []byte{0, 1, 2, 3} {
		f.Add(descBytes(Desc{Len: 128, Kind: KindShared, Ref: 0}), uint64(1), mode)                  // honest-ish
		f.Add(descBytes(Desc{Len: 128, Kind: KindInline}), uint64(8*4), mode)                        // overclaim prod
		f.Add(descBytes(Desc{Len: 1 << 30, Kind: KindInline}), uint64(1), mode)                      // length lie
		f.Add(descBytes(Desc{Len: 64, Kind: KindShared, Ref: 0xFFFFFFFFFFFF0000}), uint64(1), mode)  // forged handle
		f.Add(descBytes(Desc{Len: 64, Kind: KindShared, Ref: 2}), uint64(3), mode)                   // replayed slab
		f.Add(descBytes(Desc{Len: 0, Kind: KindIndirect, Ref: ^uint64(0)}), ^uint64(0), mode)        // extremes
		f.Add(descBytes(Desc{Len: 1500, Kind: KindShared, Ref: uint64(1)<<32 | 5}), uint64(2), mode) // stale generation
		// Lengths straddling the one-page slab boundary: exactly at the
		// slab, one inside, one past (the off-by-one a slab-bound bug
		// would miss).
		f.Add(descBytes(Desc{Len: platform.PageSize, Kind: KindShared, Ref: 1}), uint64(1), mode)
		f.Add(descBytes(Desc{Len: platform.PageSize - 1, Kind: KindShared, Ref: 1}), uint64(1), mode)
		f.Add(descBytes(Desc{Len: platform.PageSize + 1, Kind: KindShared, Ref: 1}), uint64(1), mode)
	}

	f.Fuzz(func(t *testing.T, raw []byte, prod uint64, modeSel byte) {
		d := decodeDesc(raw)
		cfg := fuzzCfgSel(modeSel)
		ep, err := New(cfg, nil)
		if err != nil {
			t.Fatalf("constructing endpoint: %v", err)
		}

		// The hostile host: stamp the descriptor into every used-ring slot
		// and publish an arbitrary producer index.
		sh := ep.Shared()
		for i := uint64(0); i < sh.RXUsed.NSlots(); i++ {
			sh.RXUsed.WriteDesc(i, d)
		}
		sh.RXUsed.Indexes().StoreProd(prod)

		sawFatal := false
		for i := 0; i < 2*int(cfg.Slots); i++ {
			fr, err := ep.Recv()
			switch {
			case err == nil:
				if sawFatal {
					t.Fatal("Recv succeeded after a fatal protocol violation")
				}
				data := fr.Bytes()
				if len(data) != int(d.Len) || len(data) > cfg.FrameCap() || len(data) == 0 {
					t.Fatalf("frame length %d escaped validation (desc.Len=%d, cap=%d)",
						len(data), d.Len, cfg.FrameCap())
				}
				// Touch every byte: if the view were mis-bounded this is
				// where an out-of-range access would surface.
				var sum byte
				for _, v := range data {
					sum += v
				}
				_ = sum
				fr.Release()
			case errors.Is(err, nic.ErrEmpty):
				return
			case errors.Is(err, ErrDead):
				if !sawFatal {
					t.Fatal("ErrDead without a preceding protocol violation")
				}
				return
			case errors.Is(err, ErrProtocol):
				sawFatal = true
				if ep.Dead() == nil {
					t.Fatalf("protocol violation %v did not kill the endpoint", err)
				}
			default:
				t.Fatalf("Recv returned unexpected error class: %v", err)
			}
		}
	})
}

// FuzzTXGather is FuzzDescDecode's mirror for the honest host: a hostile
// guest stamps a raw TX descriptor into every TX slot, arbitrary words
// into every indirect-table entry (count at +0, handle at +16, length at
// +24) and publishes an arbitrary producer index. Every Pop yields a frame
// of exactly the descriptor's length (at most FrameCap), nic.ErrEmpty, or
// a protocol violation that poisons the port — never a panic or an
// out-of-range read.
func FuzzTXGather(f *testing.F) {
	// Seeds from the TestHostDetects* shapes.
	for _, mode := range []byte{0, 1, 2, 3} {
		f.Add(descBytes(Desc{Len: 100, Kind: KindIndirect}), uint64(1), uint64(0), uint64(100), uint64(1), mode) // honest indirect
		f.Add(descBytes(Desc{Len: 100, Kind: KindShared, Ref: 3}), uint64(1), uint64(0), uint64(100), uint64(1), mode)
		f.Add(descBytes(Desc{Len: 64, Kind: KindInline}), uint64(0), uint64(0), uint64(0), uint64(1), mode)
		f.Add(descBytes(Desc{Len: 64, Kind: KindInline}), uint64(0), uint64(0), uint64(0), uint64(8+2), mode)    // overclaim prod
		f.Add(descBytes(Desc{Len: 1 << 20, Kind: KindInline}), uint64(0), uint64(0), uint64(0), uint64(1), mode) // oversized len
		f.Add(descBytes(Desc{Len: 64, Kind: KindWord(KindShared, 5)}), uint64(1), uint64(0), uint64(64), uint64(1), mode)
		f.Add(descBytes(Desc{Len: 100, Kind: KindIndirect}), uint64(9), uint64(0), uint64(100), uint64(1), mode) // segment count
		f.Add(descBytes(Desc{Len: 100, Kind: KindIndirect}), uint64(1), uint64(0), uint64(50), uint64(1), mode)  // length short
		f.Add(descBytes(Desc{Len: 100, Kind: KindIndirect}), uint64(2), uint64(0), uint64(50), uint64(1), mode)  // two segments
		f.Add(descBytes(Desc{Len: 1564, Kind: KindIndirect, Ref: ^uint64(0)}), uint64(1), ^uint64(0), uint64(1564), ^uint64(0), mode)
	}

	f.Fuzz(func(t *testing.T, raw []byte, nseg, handle, segLen, prod uint64, modeSel byte) {
		d := decodeDesc(raw)
		cfg := fuzzCfgSel(modeSel)
		sh, err := newShared(cfg, nil, 0)
		if err != nil {
			t.Fatalf("constructing device: %v", err)
		}
		hp := NewHostPort(sh)

		for i := uint64(0); i < sh.TX.NSlots(); i++ {
			sh.TX.WriteDesc(i, d)
		}
		if sh.TXInd != nil {
			entrySize := uint64(sh.TXInd.Size() / cfg.Slots)
			for e := uint64(0); e < uint64(cfg.Slots); e++ {
				sh.TXInd.SetU64(e*entrySize, nseg)
				sh.TXInd.SetU64(e*entrySize+16, handle)
				sh.TXInd.SetU64(e*entrySize+24, segLen)
			}
		}
		sh.TX.Indexes().StoreProd(prod)

		buf := make([]byte, cfg.FrameCap())
		sawFatal := false
		for i := 0; i < 2*cfg.Slots; i++ {
			n, err := hp.Pop(buf)
			switch {
			case err == nil:
				if sawFatal {
					t.Fatal("Pop succeeded after a fatal protocol violation")
				}
				if n != int(d.Len) || n > cfg.FrameCap() || n == 0 {
					t.Fatalf("frame length %d escaped validation (desc.Len=%d, cap=%d)", n, d.Len, cfg.FrameCap())
				}
			case errors.Is(err, nic.ErrEmpty):
				return
			case errors.Is(err, ErrDead):
				if !sawFatal {
					t.Fatal("ErrDead without a preceding protocol violation")
				}
				return
			case errors.Is(err, ErrProtocol):
				sawFatal = true
				if hp.Dead() == nil {
					t.Fatalf("protocol violation %v did not poison the port", err)
				}
			default:
				t.Fatalf("Pop returned unexpected error class: %v", err)
			}
		}
	})
}
