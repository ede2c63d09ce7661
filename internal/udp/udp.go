// Package udp implements UDP datagram encoding and checksums for the
// in-TEE network stack.
package udp

import (
	"errors"
	"fmt"

	"confio/internal/ipv4"
)

// HeaderLen is the UDP header size.
const HeaderLen = 8

// Datagram is a parsed UDP datagram. Payload aliases the input buffer.
type Datagram struct {
	SrcPort uint16
	DstPort uint16
	Payload []byte
}

// ErrMalformed reports an unusable datagram.
var ErrMalformed = errors.New("udp: malformed datagram")

// ErrChecksum reports a checksum failure.
var ErrChecksum = errors.New("udp: bad checksum")

// Parse decodes and (when the checksum field is nonzero) verifies a UDP
// datagram carried between src and dst.
func Parse(src, dst ipv4.Addr, buf []byte) (Datagram, error) {
	if len(buf) < HeaderLen {
		return Datagram{}, fmt.Errorf("%w: %d bytes", ErrMalformed, len(buf))
	}
	length := int(buf[4])<<8 | int(buf[5])
	if length < HeaderLen || length > len(buf) {
		return Datagram{}, fmt.Errorf("%w: length %d of %d", ErrMalformed, length, len(buf))
	}
	ck := uint16(buf[6])<<8 | uint16(buf[7])
	if ck != 0 {
		if ipv4.TransportChecksum(src, dst, ipv4.ProtoUDP, buf[:length]) != 0 {
			return Datagram{}, ErrChecksum
		}
	}
	return Datagram{
		SrcPort: uint16(buf[0])<<8 | uint16(buf[1]),
		DstPort: uint16(buf[2])<<8 | uint16(buf[3]),
		Payload: buf[HeaderLen:length],
	}, nil
}

// Put encodes the header, checksum included, of the datagram b from
// srcPort to dstPort carried between src and dst into b[:HeaderLen]. The
// payload is already in place behind it: len(b) is the datagram's length.
func Put(b []byte, src, dst ipv4.Addr, srcPort, dstPort uint16) {
	b[0], b[1] = byte(srcPort>>8), byte(srcPort)
	b[2], b[3] = byte(dstPort>>8), byte(dstPort)
	b[4], b[5] = byte(len(b)>>8), byte(len(b))
	b[6], b[7] = 0, 0
	ck := ipv4.TransportChecksum(src, dst, ipv4.ProtoUDP, b)
	if ck == 0 {
		ck = 0xFFFF // 0 means "no checksum" on the wire
	}
	b[6], b[7] = byte(ck>>8), byte(ck)
}
