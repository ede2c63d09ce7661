package shmem

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// newRegion is NewRegion for the known-good sizes of these tests.
func newRegion(t *testing.T, size int) *Region {
	t.Helper()
	r, err := NewRegion(size)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// byteAt reads the one byte at the masked offset.
func byteAt(r *Region, off uint64) byte {
	var b [1]byte
	r.ReadAt(b[:], off)
	return b[0]
}

// setByte writes the one byte v at the masked offset.
func setByte(r *Region, off uint64, v byte) { r.WriteAt([]byte{v}, off) }

func TestNewRegionValidatesSize(t *testing.T) {
	for _, bad := range []int{0, -8, 3, 12, 7, MinRegionSize / 2, 1000} {
		if _, err := NewRegion(bad); err == nil {
			t.Errorf("NewRegion(%d) accepted a non-power-of-two size", bad)
		}
	}
	for _, good := range []int{8, 16, 64, 4096, 1 << 20} {
		r := newRegion(t, good)
		if r.Size() != good {
			t.Errorf("Size() = %d, want %d", r.Size(), good)
		}
		if r.Mask() != uint64(good-1) {
			t.Errorf("Mask() = %d, want %d", r.Mask(), good-1)
		}
	}
}

func TestByteMasking(t *testing.T) {
	r := newRegion(t, 16)
	setByte(r, 3, 0xAA)
	if got := byteAt(r, 3); got != 0xAA {
		t.Fatalf("byte 3 = %#x, want 0xAA", got)
	}
	// Offset 19 masks to 3: no out-of-range access is expressible.
	if got := byteAt(r, 19); got != 0xAA {
		t.Fatalf("byte 19 = %#x, want masked alias of offset 3", got)
	}
	setByte(r, 1<<40|5, 0xBB)
	if got := byteAt(r, 5); got != 0xBB {
		t.Fatalf("huge offset did not mask to 5")
	}
}

func TestReadWriteAtWrapAround(t *testing.T) {
	r := newRegion(t, 16)
	src := []byte{1, 2, 3, 4, 5, 6}
	r.WriteAt(src, 13) // wraps: bytes land at 13,14,15,0,1,2
	dst := make([]byte, 6)
	r.ReadAt(dst, 13)
	if !bytes.Equal(dst, src) {
		t.Fatalf("wrap round-trip = %v, want %v", dst, src)
	}
	if byteAt(r, 0) != 4 || byteAt(r, 2) != 6 {
		t.Fatalf("wrapped bytes not at start of region: %v %v", byteAt(r, 0), byteAt(r, 2))
	}
}

func TestIntegerAccessorsRoundTrip(t *testing.T) {
	r := newRegion(t, 64)
	r.SetU16(10, 0xBEEF)
	if got := r.U16(10); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	r.SetU32(20, 0xDEADBEEF)
	if got := r.U32(20); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	r.SetU64(32, 0x0123456789ABCDEF)
	if got := r.U64(32); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", got)
	}
}

func TestIntegerAccessorsWrap(t *testing.T) {
	r := newRegion(t, 16)
	// U64 spanning the wrap point.
	r.SetU64(12, 0x1122334455667788)
	if got := r.U64(12); got != 0x1122334455667788 {
		t.Fatalf("wrapping U64 = %#x", got)
	}
	// It must also equal masked aliases.
	if got := r.U64(12 + 16); got != 0x1122334455667788 {
		t.Fatalf("aliased wrapping U64 = %#x", got)
	}
	r.SetU32(15, 0xA1B2C3D4)
	if got := r.U32(15); got != 0xA1B2C3D4 {
		t.Fatalf("wrapping U32 = %#x", got)
	}
	r.SetU16(15, 0x5566)
	if got := r.U16(15); got != 0x5566 {
		t.Fatalf("wrapping U16 = %#x", got)
	}
}

func TestFillAndClone(t *testing.T) {
	r := newRegion(t, 32)
	r.Fill(0x7F)
	for i := uint64(0); i < 32; i++ {
		if byteAt(r, i) != 0x7F {
			t.Fatalf("Fill missed byte %d", i)
		}
	}
	c := r.Clone()
	setByte(r, 0, 0)
	if byteAt(c, 0) != 0x7F {
		t.Fatal("Clone shares storage with original")
	}
}

// TestSliceIsContiguousView: Slice aliases the region's storage at the
// masked offset — writes through either side show in the other.
func TestSliceIsContiguousView(t *testing.T) {
	r := newRegion(t, 64)
	s := r.Slice(16+64, 8) // masks to 16
	if len(s) != 8 {
		t.Fatalf("len = %d, want 8", len(s))
	}
	copy(s, "contig!!")
	got := make([]byte, 8)
	r.ReadAt(got, 16)
	if string(got) != "contig!!" {
		t.Fatalf("region under the view reads %q", got)
	}
	r.WriteAt([]byte{0xEE}, 23)
	if s[7] != 0xEE {
		t.Fatal("region write not visible through the view")
	}
	if whole := r.Slice(0, r.Size()); len(whole) != r.Size() {
		t.Fatalf("whole-region view has %d bytes", len(whole))
	}
}

// TestSlicePanicsOnWrap: a range that would cross the region end has no
// contiguous view, and Slice refuses it rather than truncate or wrap.
func TestSlicePanicsOnWrap(t *testing.T) {
	r := newRegion(t, 64)
	for _, c := range []struct {
		off uint64
		n   int
	}{{60, 8}, {63, 2}, {0, 65}, {1<<40 | 60, 5}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "wraps region") {
					t.Errorf("Slice(%d, %d): recovered %q, want a wrap panic", c.off, c.n, msg)
				}
			}()
			r.Slice(c.off, c.n)
		}()
	}
}

// Property: for any offset, accessors never panic and reads observe the
// most recent masked write.
func TestMaskedAccessProperty(t *testing.T) {
	r := newRegion(t, 256)
	f := func(off uint64, v byte) bool {
		setByte(r, off, v)
		return byteAt(r, off) == v && byteAt(r, off&r.Mask()) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: U64 round-trips at arbitrary (possibly wrapping) offsets.
func TestU64RoundTripProperty(t *testing.T) {
	r := newRegion(t, 128)
	f := func(off, v uint64) bool {
		r.SetU64(off, v)
		return r.U64(off) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: WriteAt/ReadAt round-trip for arbitrary short payloads at
// arbitrary offsets, including wrap-around.
func TestReadWriteAtProperty(t *testing.T) {
	r := newRegion(t, 64)
	f := func(off uint64, data []byte) bool {
		if len(data) > r.Size() {
			data = data[:r.Size()]
		}
		r.WriteAt(data, off)
		got := make([]byte, len(data))
		r.ReadAt(got, off)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
