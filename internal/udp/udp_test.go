package udp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"confio/internal/ipv4"
)

var (
	srcIP = ipv4.Addr{192, 168, 1, 1}
	dstIP = ipv4.Addr{192, 168, 1, 2}
)

// datagram encodes a datagram the way the stack does: the payload in
// place, then Put writes the header in front of it.
func datagram(src, dst ipv4.Addr, srcPort, dstPort uint16, payload []byte) []byte {
	b := make([]byte, HeaderLen+len(payload))
	copy(b[HeaderLen:], payload)
	Put(b, src, dst, srcPort, dstPort)
	return b
}

func TestRoundTrip(t *testing.T) {
	buf := datagram(srcIP, dstIP, 1234, 5678, []byte("datagram"))
	d, err := Parse(srcIP, dstIP, buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 1234 || d.DstPort != 5678 || !bytes.Equal(d.Payload, []byte("datagram")) {
		t.Fatalf("round trip mismatch: %+v", d)
	}
}

// TestPutOverwritesStaleHeader: Put sets all eight header bytes, the
// checksum field included before it sums, so stale bytes in front of the
// payload leave no trace.
func TestPutOverwritesStaleHeader(t *testing.T) {
	buf := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 'a', 'b', 'c'}
	Put(buf, srcIP, dstIP, 1, 2)
	if want := datagram(srcIP, dstIP, 1, 2, []byte("abc")); !bytes.Equal(buf, want) {
		t.Fatalf("Put over stale bytes wrote % x, want % x", buf, want)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	buf := datagram(srcIP, dstIP, 1, 2, []byte("payload"))
	buf[HeaderLen] ^= 0xFF
	if _, err := Parse(srcIP, dstIP, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corruption: %v", err)
	}
	// Wrong pseudo-header (different dst) also fails.
	good := datagram(srcIP, dstIP, 1, 2, []byte("payload"))
	if _, err := Parse(srcIP, ipv4.Addr{9, 9, 9, 9}, good); !errors.Is(err, ErrChecksum) {
		t.Fatalf("pseudo-header: %v", err)
	}
}

func TestZeroChecksumSkipsVerification(t *testing.T) {
	buf := datagram(srcIP, dstIP, 1, 2, []byte("x"))
	buf[6], buf[7] = 0, 0 // sender opted out
	if _, err := Parse(srcIP, dstIP, buf); err != nil {
		t.Fatalf("zero checksum: %v", err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	if _, err := Parse(srcIP, dstIP, make([]byte, 7)); !errors.Is(err, ErrMalformed) {
		t.Fatal("short datagram accepted")
	}
	buf := datagram(srcIP, dstIP, 1, 2, []byte("abc"))
	buf[4], buf[5] = 0xFF, 0xFF // length beyond buffer
	if _, err := Parse(srcIP, dstIP, buf); !errors.Is(err, ErrMalformed) {
		t.Fatal("oversized length accepted")
	}
	buf2 := datagram(srcIP, dstIP, 1, 2, []byte("abc"))
	buf2[4], buf2[5] = 0, 4 // length below header size
	if _, err := Parse(srcIP, dstIP, buf2); !errors.Is(err, ErrMalformed) {
		t.Fatal("undersized length accepted")
	}
}

func TestTrailingBytesIgnored(t *testing.T) {
	buf := datagram(srcIP, dstIP, 1, 2, []byte("abc"))
	buf = append(buf, 0xDE, 0xAD) // link-layer padding
	d, err := Parse(srcIP, dstIP, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Payload, []byte("abc")) {
		t.Fatalf("payload = %q", d.Payload)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		buf := datagram(srcIP, dstIP, sp, dp, payload)
		d, err := Parse(srcIP, dstIP, buf)
		return err == nil && d.SrcPort == sp && d.DstPort == dp && bytes.Equal(d.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
