package ipv4

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzFragment drives both ends of fragmentation.
//
// Honest (hostile false): data picks a payload length, an MTU of at least
// 68 and a delivery order. What the fragment writer makes of the payload
// must parse, fit the MTU and reassemble to the payload on the last
// delivery and not before.
//
// Hostile (hostile true): data is a host's fragments of one datagram,
// five bytes each — offset in 8-byte units, length, flags. The reassembler
// must never panic and never deliver a datagram other than as long as the
// end its last fragment declared.
func FuzzFragment(f *testing.F) {
	// The three fragments that crashed the reassembler before it checked
	// fragments against the declared end.
	f.Add(true, []byte{0, 0, 0, 200, 1, 0, 25, 0, 8, 1, 0, 1, 0, 8, 0})
	f.Add(true, []byte{0, 1, 0, 8, 0, 0, 0, 0, 8, 1})
	f.Add(false, []byte{0x13, 0x88, 0x05, 0xDC, 3, 1, 4, 1, 5})
	f.Add(false, []byte{0xFF, 0xEB, 0, 0})
	f.Fuzz(func(t *testing.T, hostile bool, data []byte) {
		r := NewReassembler(0, 0)
		now := time.Unix(0, 0)
		h := Header{ID: 1, TTL: 64, Proto: ProtoUDP, Src: srcIP, Dst: dstIP}
		if hostile {
			declared := -1
			for ; len(data) >= 5; data = data[5:] {
				fh := h
				fh.FragOff = binary.BigEndian.Uint16(data) & 0x1FFF * 8
				fh.Flags = data[4] & FlagMF
				n := int(binary.BigEndian.Uint16(data[2:]) % 2049)
				if fh.Flags&FlagMF == 0 && fh.FragOff != 0 {
					declared = int(fh.FragOff) + n
				}
				out, ok := r.Add(fh, make([]byte, n), now)
				if ok && fh.Flags&FlagMF == 0 && fh.FragOff == 0 {
					continue // unfragmented: its own payload
				}
				if ok && len(out) != declared {
					t.Fatalf("delivered %d bytes, the last fragment declared %d", len(out), declared)
				}
			}
			return
		}
		if len(data) < 4 {
			return
		}
		n := int(binary.BigEndian.Uint16(data)) % (MaxPayload + 1)
		mtu := 68 + int(binary.BigEndian.Uint16(data[2:]))%(9000-68+1)
		order := data[4:]
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + i>>8)
		}
		frags := fragment(h, payload, mtu)
		if n > 0 && len(frags) == 0 {
			t.Fatalf("%d bytes at mtu %d made no packet", n, mtu)
		}
		for i := len(frags) - 1; i > 0 && len(order) > 0; i, order = i-1, order[1:] {
			j := int(order[0]) % (i + 1)
			frags[i], frags[j] = frags[j], frags[i]
		}
		for i, pkt := range frags {
			if len(pkt) > mtu {
				t.Fatalf("a %d-byte packet on a %d-byte MTU", len(pkt), mtu)
			}
			fh, pl, err := Parse(pkt)
			if err != nil {
				t.Fatalf("packet %d: %v", i, err)
			}
			out, ok := r.Add(fh, pl, now)
			if ok != (i == len(frags)-1) {
				t.Fatalf("packet %d of %d: delivered %v", i, len(frags), ok)
			}
			if ok && !bytes.Equal(out, payload) {
				t.Fatalf("%d bytes at mtu %d reassembled to %d different bytes", n, mtu, len(out))
			}
		}
	})
}
