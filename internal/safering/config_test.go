package safering

import (
	"errors"
	"strings"
	"testing"

	"confio/internal/platform"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name   string
		mutate func(*DeviceConfig)
	}{
		{"tiny mtu", func(c *DeviceConfig) { c.MTU = 10 }},
		{"huge mtu", func(c *DeviceConfig) { c.MTU = 1 << 20 }},
		{"non-pow2 slots", func(c *DeviceConfig) { c.Slots = 100 }},
		{"one slot", func(c *DeviceConfig) { c.Slots = 1 }},
		{"non-pow2 slot size", func(c *DeviceConfig) { c.SlotSize = 1000 }},
		{"tiny slot size", func(c *DeviceConfig) { c.SlotSize = 32 }},
		{"bad mode", func(c *DeviceConfig) { c.Mode = DataMode(9) }},
		{"bad rx policy", func(c *DeviceConfig) { c.RX = RXPolicy(9) }},
		{"inline slot too small for mtu", func(c *DeviceConfig) { c.SlotSize = 1024 }},
		{"revoke without shared area", func(c *DeviceConfig) { c.RX = Revoke; c.Mode = Inline }},
		// Non-inline payloads live in one-page slabs: a frame capacity past
		// PageSize would let a host-published Len reach the adjacent slab,
		// so such configs must be rejected at construction.
		{"shared frame cap over page", func(c *DeviceConfig) { c.Mode = SharedArea; c.SlotSize = 64; c.MTU = 4050 }},
		{"revoke frame cap over page", func(c *DeviceConfig) { c.Mode = SharedArea; c.RX = Revoke; c.SlotSize = 64; c.MTU = 4050 }},
		{"indirect frame cap over page", func(c *DeviceConfig) { c.Mode = Indirect; c.SlotSize = 64; c.MTU = 4050 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.mutate(&c)
			if err := c.Validate(); !errors.Is(err, ErrConfig) {
				t.Fatalf("want ErrConfig, got %v", err)
			}
		})
	}
}

func TestConfigSlabBoundEdges(t *testing.T) {
	// FrameCap exactly at the slab boundary is the largest legal non-inline
	// geometry (MTU + HeaderSlack == PageSize).
	c := DefaultConfig()
	c.Mode = SharedArea
	c.SlotSize = 64
	c.MTU = platform.PageSize - HeaderSlack
	if err := c.Validate(); err != nil {
		t.Fatalf("frame cap == PageSize must be valid: %v", err)
	}
	c.MTU++
	if err := c.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("frame cap one past PageSize must be rejected, got %v", err)
	}
	// Inline mode has no slab: capacities past a page are fine if the slot
	// holds them.
	c = DefaultConfig()
	c.SlotSize = 8192
	c.MTU = 4096
	if err := c.Validate(); err != nil {
		t.Fatalf("inline frame cap past PageSize must be valid: %v", err)
	}
}

func TestConfigStringers(t *testing.T) {
	if Inline.String() != "inline" || SharedArea.String() != "shared-area" || Indirect.String() != "indirect" {
		t.Error("DataMode.String wrong")
	}
	if !strings.Contains(DataMode(9).String(), "DataMode") {
		t.Error("unknown DataMode.String wrong")
	}
	if CopyOut.String() != "copy" || Revoke.String() != "revoke" {
		t.Error("RXPolicy.String wrong")
	}
	m := MAC{0x02, 0, 0, 0xC1, 0x0A, 0x01}
	if m.String() != "02:00:00:c1:0a:01" {
		t.Errorf("MAC.String = %q", m.String())
	}
}

func TestFrameCap(t *testing.T) {
	c := DefaultConfig()
	if got := c.FrameCap(); got != c.SlotSize-DescSize {
		t.Errorf("inline FrameCap = %d", got)
	}
	c.Mode = SharedArea
	if got := c.FrameCap(); got != c.MTU+HeaderSlack {
		t.Errorf("shared FrameCap = %d", got)
	}
}

// TestIndEntrySize pins the indirect table's layout: one 32-byte entry
// per TX slot — count at +0, handle at +16, length at +24 — in a table of
// exactly Slots entries, so filling every slot leaves each entry holding
// its own frame's words.
func TestIndEntrySize(t *testing.T) {
	if indEntrySize != 32 {
		t.Fatalf("indEntrySize = %d, want 32", indEntrySize)
	}
	cfg := cfgFor(Indirect, CopyOut)
	cfg.Slots = 8
	ep, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := ep.Shared()
	if got := sh.TXInd.Size(); got != cfg.Slots*indEntrySize {
		t.Fatalf("TXInd holds %d bytes, want %d slots x %d", got, cfg.Slots, indEntrySize)
	}
	for i := 0; i < cfg.Slots; i++ {
		if err := ep.Send(frame(100+i, byte(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < uint64(cfg.Slots); i++ {
		if ref := sh.TX.ReadDesc(i).Ref; ref != i {
			t.Fatalf("slot %d names entry %d", i, ref)
		}
		entry := i * indEntrySize
		nseg, pad, h, ln := sh.TXInd.U64(entry), sh.TXInd.U64(entry+8), sh.TXInd.U64(entry+16), sh.TXInd.U64(entry+24)
		if nseg != 1 || pad != 0 || ln != 100+i {
			t.Fatalf("entry %d = (count %d, pad %d, len %d), want (1, 0, %d)", i, nseg, pad, ln, 100+i)
		}
		if seen[h] {
			t.Fatalf("entry %d repeats handle %#x", i, h)
		}
		seen[h] = true
	}
}

// TestKindCodesAreDataModes pins the equality both TX sides rely on when
// they derive the descriptor kind from DeviceConfig.Mode.
func TestKindCodesAreDataModes(t *testing.T) {
	if KindInline != uint32(Inline) || KindShared != uint32(SharedArea) || KindIndirect != uint32(Indirect) {
		t.Fatalf("kind codes (%d, %d, %d) != data modes (%d, %d, %d)",
			KindInline, KindShared, KindIndirect, Inline, SharedArea, Indirect)
	}
}
