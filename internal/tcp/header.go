// Package tcp implements the Transmission Control Protocol for the
// in-TEE network stack: connection establishment and teardown,
// cumulative acknowledgment, retransmission with exponential backoff,
// fast retransmit, out-of-order reassembly, flow control with zero-window
// probing, and RST handling.
//
// This is the largest component the paper's L2 designs pull into the
// confidential TCB — the package's line count feeds the TCB accounting
// that positions designs in Figure 5. Placing the boundary at L5 moves
// this entire package (plus ipv4, ether, arp and the driver) out of
// the core TCB; the dual-boundary design moves it into the I/O
// compartment instead.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"confio/internal/ipv4"
)

// Header flag bits.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
)

// headerLen is the fixed header size without options.
const headerLen = 20

// Header is a parsed TCP header. Only the MSS option is understood; all
// others are skipped on parse and never emitted.
type Header struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	// MSS is the maximum-segment-size option (0 when absent).
	MSS uint16
}

// ErrMalformed reports an unusable segment.
var ErrMalformed = errors.New("tcp: malformed segment")

// ErrChecksum reports a segment checksum failure.
var ErrChecksum = errors.New("tcp: bad checksum")

// Parse decodes and verifies a TCP segment carried between src and dst,
// returning the header and payload (aliasing buf).
func Parse(src, dst ipv4.Addr, buf []byte) (Header, []byte, error) {
	if len(buf) < headerLen {
		return Header{}, nil, fmt.Errorf("%w: %d bytes", ErrMalformed, len(buf))
	}
	if ipv4.TransportChecksum(src, dst, ipv4.ProtoTCP, buf) != 0 {
		return Header{}, nil, ErrChecksum
	}
	dataOff := int(buf[12]>>4) * 4
	if dataOff < headerLen || dataOff > len(buf) {
		return Header{}, nil, fmt.Errorf("%w: data offset %d", ErrMalformed, dataOff)
	}
	var h Header
	h.SrcPort = uint16(buf[0])<<8 | uint16(buf[1])
	h.DstPort = uint16(buf[2])<<8 | uint16(buf[3])
	h.Seq = be32(buf[4:])
	h.Ack = be32(buf[8:])
	h.Flags = buf[13] & 0x1F
	h.Window = uint16(buf[14])<<8 | uint16(buf[15])

	// Scan options for MSS.
	opts := buf[headerLen:dataOff]
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end of options
			opts = nil
		case 1: // nop
			opts = opts[1:]
		case 2: // MSS
			if len(opts) < 4 || opts[1] != 4 {
				return Header{}, nil, fmt.Errorf("%w: bad MSS option", ErrMalformed)
			}
			h.MSS = uint16(opts[2])<<8 | uint16(opts[3])
			opts = opts[4:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				return Header{}, nil, fmt.Errorf("%w: bad option", ErrMalformed)
			}
			opts = opts[opts[1]:]
		}
	}
	return h, buf[dataOff:], nil
}

// putHeader encodes h, options included and the checksum left zero, into
// the front of b and returns the header length.
func putHeader(b []byte, h Header) int {
	dataOff := headerLen
	if h.MSS != 0 {
		dataOff += 4
	}
	b = b[:dataOff]
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint32(b[4:], h.Seq)
	binary.BigEndian.PutUint32(b[8:], h.Ack)
	b[12], b[13] = byte(dataOff/4)<<4, h.Flags
	binary.BigEndian.PutUint16(b[14:], h.Window)
	b[16], b[17] = 0, 0 // checksum
	b[18], b[19] = 0, 0 // urgent
	if h.MSS != 0 {
		b[20], b[21] = 2, 4
		binary.BigEndian.PutUint16(b[22:], h.MSS)
	}
	return dataOff
}

// putChecksum completes a segment encoded by putHeader and followed by
// its payload.
func putChecksum(seg []byte, src, dst ipv4.Addr) {
	binary.BigEndian.PutUint16(seg[16:], ipv4.TransportChecksum(src, dst, ipv4.ProtoTCP, seg))
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Sequence-space arithmetic (RFC 793 comparisons, wraparound safe).

func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }
func seqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }
