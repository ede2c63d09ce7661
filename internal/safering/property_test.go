package safering

import (
	"errors"
	"testing"
	"testing/quick"

	"confio/internal/nic"
)

// Property: whatever index values a malicious host publishes, guest
// operations never panic and never mis-handle — each call either
// succeeds, reports empty/full, or fails fatally with ErrProtocol.
func TestHostIndexTotalityProperty(t *testing.T) {
	f := func(prodRX, consTX uint64, descLen uint32, descRef uint64) bool {
		ep, err := New(DefaultConfig(), nil)
		if err != nil {
			return false
		}
		sh := ep.Shared()
		sh.RXUsed.WriteDesc(0, Desc{Len: descLen, Kind: KindInline, Ref: descRef})
		sh.RXUsed.Indexes().StoreProd(prodRX)
		sh.TX.Indexes().StoreCons(consTX)

		_, rerr := ep.Recv()
		if rerr != nil && !errors.Is(rerr, nic.ErrEmpty) && !errors.Is(rerr, ErrProtocol) && !errors.Is(rerr, ErrDead) {
			return false
		}
		serr := ep.Send(make([]byte, 64))
		if serr != nil && !errors.Is(serr, nic.ErrFull) && !errors.Is(serr, ErrProtocol) && !errors.Is(serr, ErrDead) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: forged shared-area descriptors never escape guest memory
// safety, for any (len, ref) pair: delivery, rejection, or fatal error.
func TestForgedDescriptorTotalityProperty(t *testing.T) {
	f := func(descLen uint32, descRef uint64, kind uint8) bool {
		cfg := DefaultConfig()
		cfg.Mode = SharedArea
		cfg.SlotSize = 64
		ep, err := New(cfg, nil)
		if err != nil {
			return false
		}
		sh := ep.Shared()
		sh.RXUsed.WriteDesc(0, Desc{Len: descLen, Kind: uint32(kind), Ref: descRef})
		sh.RXUsed.Indexes().StoreProd(1)
		rx, rerr := ep.Recv()
		if rerr == nil {
			if len(rx.Bytes()) == 0 || len(rx.Bytes()) > cfg.FrameCap() {
				return false
			}
			rx.Release()
			return true
		}
		return errors.Is(rerr, ErrProtocol) || errors.Is(rerr, nic.ErrEmpty)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
