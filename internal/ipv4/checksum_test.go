package ipv4

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// refChecksum is RFC 1071's two-bytes-at-a-time loop, seeded with a
// pseudo-header sum: the body Checksum and TransportChecksum had before
// they went word-wide, kept as the reference the wide one must match.
func refChecksum(sum uint32, data []byte) uint16 {
	for len(data) >= 2 {
		sum += uint32(data[0])<<8 | uint32(data[1])
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum >> 16) + (sum & 0xFFFF)
	}
	return ^uint16(sum)
}

// TestChecksumMatchesReference checks the word-wide sum against the
// reference on random data of every length class (0–2,048, odd and even,
// every tail length of the 32- and 8-byte loops), on all-0xFF data whose
// every addition carries, and with and without a pseudo header.
func TestChecksumMatchesReference(t *testing.T) {
	check := func(t *testing.T, data []byte, src, dst Addr, proto byte) {
		t.Helper()
		if got, want := Checksum(data), refChecksum(0, data); got != want {
			t.Fatalf("Checksum(len %d) = %#04x, reference %#04x", len(data), got, want)
		}
		pseudo := PseudoChecksum(src, dst, proto, len(data))
		if got, want := TransportChecksum(src, dst, proto, data), refChecksum(pseudo, data); got != want {
			t.Fatalf("TransportChecksum(%v→%v proto %d, len %d) = %#04x, reference %#04x", src, dst, proto, len(data), got, want)
		}
	}
	t.Run("every length, carry-heavy", func(t *testing.T) {
		ones := bytes.Repeat([]byte{0xFF}, 2048)
		for n := 0; n <= len(ones); n++ {
			check(t, ones[:n], Addr{255, 255, 255, 255}, Addr{255, 255, 255, 255}, 0xFF)
			check(t, ones[:n], Addr{}, Addr{}, 0)
		}
	})
	t.Run("random", func(t *testing.T) {
		f := func(seed int64, n uint16, src, dst Addr, proto byte) bool {
			data := make([]byte, int(n)%2049)
			rand.New(rand.NewSource(seed)).Read(data)
			check(t, data, src, dst, proto)
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("verifies to zero", func(t *testing.T) {
		// The property receivers rely on: a segment carrying its own
		// checksum sums to zero, at odd lengths too.
		for _, n := range []int{20, 21, 51, 52, 1459, 1460} {
			seg := make([]byte, n)
			rand.New(rand.NewSource(int64(n))).Read(seg)
			seg[16], seg[17] = 0, 0
			ck := TransportChecksum(srcIP, dstIP, ProtoTCP, seg)
			seg[16], seg[17] = byte(ck>>8), byte(ck)
			if got := TransportChecksum(srcIP, dstIP, ProtoTCP, seg); got != 0 {
				t.Fatalf("len %d: checksummed segment verifies to %#04x, want 0", n, got)
			}
		}
	})
}

// TestPutHeaderOverwritesStaleBytes: the in-place writer is handed pooled
// buffers still holding the previous frame, so it must set every header
// byte; what it writes is what it writes into a zeroed buffer, and parses
// back.
func TestPutHeaderOverwritesStaleBytes(t *testing.T) {
	h := Header{ID: 0xBEEF, Flags: FlagMF, FragOff: 1480, TTL: 64, Proto: ProtoUDP, Src: srcIP, Dst: dstIP}
	payload := []byte("payload bytes")
	buf := bytes.Repeat([]byte{0xFF}, HeaderLen+len(payload))
	copy(buf[HeaderLen:], payload)
	PutHeader(buf, h, len(payload))
	if want := packet(h, payload); !bytes.Equal(buf, want) {
		t.Fatalf("PutHeader over stale bytes wrote % x, over zeroes % x", buf[:HeaderLen], want[:HeaderLen])
	}
	got, body, err := Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	h.TotalLen = uint16(len(buf))
	if got != h || !bytes.Equal(body, payload) {
		t.Fatalf("round trip: got %+v %q, want %+v %q", got, body, h, payload)
	}
}
