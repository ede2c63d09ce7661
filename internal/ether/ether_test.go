package ether

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// frame encodes f the way the stack builds every frame: the payload in
// place, the header written in front of it.
func frame(f Frame) []byte {
	b := make([]byte, HeaderLen+len(f.Payload))
	copy(b[HeaderLen:], f.Payload)
	PutHeader(b, f.Dst, f.Src, f.Type)
	return b
}

func TestRoundTrip(t *testing.T) {
	f := Frame{
		Dst:     MAC{1, 2, 3, 4, 5, 6},
		Src:     MAC{7, 8, 9, 10, 11, 12},
		Type:    TypeIPv4,
		Payload: []byte("payload"),
	}
	buf := frame(f)
	if len(buf) != HeaderLen+7 {
		t.Fatalf("len = %d", len(buf))
	}
	got, err := Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != f.Dst || got.Src != f.Src || got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestParseTruncated(t *testing.T) {
	if _, err := Parse(make([]byte, 13)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
	if _, err := Parse(make([]byte, 14)); err != nil {
		t.Fatalf("14-byte frame should parse: %v", err)
	}
}

func TestMACHelpers(t *testing.T) {
	if !Broadcast.IsBroadcast() {
		t.Fatal("broadcast not broadcast")
	}
	if (MAC{1}).IsBroadcast() {
		t.Fatal("unicast claims broadcast")
	}
	if Broadcast.String() != "ff:ff:ff:ff:ff:ff" {
		t.Fatalf("String = %q", Broadcast.String())
	}
}

// TestPutHeaderWritesOnlyTheHeader: PutHeader is handed a buffer whose
// payload is already in place and whose header bytes are stale, so it must
// set all fourteen of them and touch nothing behind.
func TestPutHeaderWritesOnlyTheHeader(t *testing.T) {
	buf := bytes.Repeat([]byte{0xAA}, HeaderLen+4)
	PutHeader(buf, MAC{1, 2, 3, 4, 5, 6}, MAC{7, 8, 9, 10, 11, 12}, TypeARP)
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0x08, 0x06, 0xAA, 0xAA, 0xAA, 0xAA}
	if !bytes.Equal(buf, want) {
		t.Fatalf("PutHeader wrote % x, want % x", buf, want)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(dst, src [6]byte, typ uint16, payload []byte) bool {
		fr := Frame{Dst: MAC(dst), Src: MAC(src), Type: typ, Payload: payload}
		got, err := Parse(frame(fr))
		return err == nil && got.Dst == fr.Dst && got.Src == fr.Src &&
			got.Type == typ && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
