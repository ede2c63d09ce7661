// Package ipv4 implements IPv4 header processing, the internet checksum,
// and fragmentation/reassembly for the in-TEE network stack.
package ipv4

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Protocol numbers used by the stack.
const (
	ProtoICMP byte = 1
	ProtoTCP  byte = 6
	ProtoUDP  byte = 17
)

// HeaderLen is the size of a header without options (the stack never
// emits options and rejects packets whose IHL exceeds the buffer).
const HeaderLen = 20

// MaxPayload is the most one datagram carries behind a header without
// options: its total length is a 16-bit field.
const MaxPayload = 0xFFFF - HeaderLen

// Addr is an IPv4 address.
type Addr [4]byte

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Header is a parsed IPv4 header.
type Header struct {
	TotalLen uint16
	ID       uint16
	Flags    uint8 // bit1 = DF, bit0 (of this field) = MF
	FragOff  uint16
	TTL      uint8
	Proto    byte
	Src      Addr
	Dst      Addr
}

// Flag bits for Header.Flags.
const (
	FlagMF uint8 = 1 // more fragments
	FlagDF uint8 = 2 // don't fragment
)

// ErrMalformed reports an unusable IPv4 packet.
var ErrMalformed = errors.New("ipv4: malformed packet")

// ErrChecksum reports a header checksum failure.
var ErrChecksum = errors.New("ipv4: bad header checksum")

// Checksum computes the internet checksum (RFC 1071) over data.
func Checksum(data []byte) uint16 {
	return ^fold(sum(0, data))
}

// PseudoChecksum computes the TCP/UDP pseudo-header checksum component.
func PseudoChecksum(src, dst Addr, proto byte, length int) uint32 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// TransportChecksum computes the checksum of a TCP/UDP segment including
// the pseudo header.
func TransportChecksum(src, dst Addr, proto byte, segment []byte) uint16 {
	return ^fold(sum(uint64(PseudoChecksum(src, dst, proto, len(segment))), segment))
}

// sum adds data, read as big-endian 16-bit words (an odd last byte padded
// with zero), onto acc in ones'-complement arithmetic. It works 64 bits
// wide with the carry wrapped around: 2^64 = 1 (mod 0xFFFF), so a whole
// word and its end-around carry add to the same 16-bit sum the RFC's
// two-byte loop reaches, and a non-zero sum never wraps to zero.
func sum(acc uint64, data []byte) uint64 {
	var c uint64
	for len(data) >= 32 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data[8:]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data[16:]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data[24:]), c)
		data = data[32:]
	}
	for len(data) >= 8 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data), c)
		data = data[8:]
	}
	if len(data) > 0 {
		var tail [8]byte // zero padding adds nothing
		copy(tail[:], data)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(tail[:]), c)
	}
	acc, c = bits.Add64(acc, 0, c)
	return acc + c
}

// fold reduces a 64-bit ones'-complement sum to 16 bits.
func fold(s uint64) uint16 {
	s = s>>32 + s&0xFFFFFFFF
	s = s>>16 + s&0xFFFF
	s = s>>16 + s&0xFFFF
	s = s>>16 + s&0xFFFF
	return uint16(s)
}

// Parse decodes and validates an IPv4 packet, returning the header and
// its payload (aliasing buf).
func Parse(buf []byte) (Header, []byte, error) {
	if len(buf) < HeaderLen {
		return Header{}, nil, fmt.Errorf("%w: %d bytes", ErrMalformed, len(buf))
	}
	if buf[0]>>4 != 4 {
		return Header{}, nil, fmt.Errorf("%w: version %d", ErrMalformed, buf[0]>>4)
	}
	ihl := int(buf[0]&0xF) * 4
	if ihl < HeaderLen || ihl > len(buf) {
		return Header{}, nil, fmt.Errorf("%w: ihl %d", ErrMalformed, ihl)
	}
	if Checksum(buf[:ihl]) != 0 {
		return Header{}, nil, ErrChecksum
	}
	var h Header
	h.TotalLen = uint16(buf[2])<<8 | uint16(buf[3])
	if int(h.TotalLen) < ihl || int(h.TotalLen) > len(buf) {
		return Header{}, nil, fmt.Errorf("%w: total length %d", ErrMalformed, h.TotalLen)
	}
	h.ID = uint16(buf[4])<<8 | uint16(buf[5])
	h.Flags = buf[6] >> 5
	h.FragOff = (uint16(buf[6]&0x1F)<<8 | uint16(buf[7])) * 8
	h.TTL = buf[8]
	h.Proto = buf[9]
	copy(h.Src[:], buf[12:16])
	copy(h.Dst[:], buf[16:20])
	return h, buf[ihl:h.TotalLen], nil
}

// PutHeader encodes h, with its checksum, into b[:HeaderLen] for a packet
// carrying payloadLen bytes; h.TotalLen is ignored.
func PutHeader(b []byte, h Header, payloadLen int) {
	total := HeaderLen + payloadLen
	b = b[:HeaderLen]
	b[0], b[1] = 0x45, 0
	binary.BigEndian.PutUint16(b[2:], uint16(total))
	binary.BigEndian.PutUint16(b[4:], h.ID)
	binary.BigEndian.PutUint16(b[6:], uint16(h.Flags)<<13|h.FragOff/8)
	b[8], b[9] = h.TTL, h.Proto
	b[10], b[11] = 0, 0 // checksum
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	binary.BigEndian.PutUint16(b[10:], Checksum(b))
}

// FragmentLen is how many payload bytes each fragment of a datagram
// carrying n of them takes on a link of the given MTU (at least 68, the
// least an IPv4 link carries): all n when the datagram fits, else what
// fits behind a header, rounded down to the offset field's 8-byte unit.
func FragmentLen(n, mtu int) int {
	if HeaderLen+n <= mtu {
		return n
	}
	return (mtu - HeaderLen) &^ 7
}

// PutFragment writes into b the fragment of the datagram h carrying
// payload whose data starts at payload[off] and fills the rest of b: its
// header, at offset off and with MF set unless it ends the datagram, then
// that data.
func PutFragment(b []byte, h Header, payload []byte, off int) {
	n := len(b) - HeaderLen
	h.FragOff, h.Flags = uint16(off), h.Flags&^FlagMF
	if off+n < len(payload) {
		h.Flags |= FlagMF
	}
	PutHeader(b, h, n)
	copy(b[HeaderLen:], payload[off:off+n])
}
