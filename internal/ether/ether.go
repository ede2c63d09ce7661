// Package ether implements Ethernet II framing for the in-TEE network
// stack (the substrate every L2 confidential I/O design needs: the
// paper's high-performance designs all exchange raw Ethernet frames).
package ether

import (
	"errors"
	"fmt"
)

// MAC is an Ethernet station address.
type MAC [6]byte

// Broadcast is the all-ones address.
var Broadcast = MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// EtherTypes used by the stack.
const (
	TypeIPv4 uint16 = 0x0800
	TypeARP  uint16 = 0x0806
)

// HeaderLen is the Ethernet II header size.
const HeaderLen = 14

// Frame is a parsed Ethernet frame. Payload aliases the input buffer.
type Frame struct {
	Dst     MAC
	Src     MAC
	Type    uint16
	Payload []byte
}

// ErrTruncated reports a frame shorter than the Ethernet header.
var ErrTruncated = errors.New("ether: truncated frame")

// Parse decodes a frame. The payload aliases buf.
func Parse(buf []byte) (Frame, error) {
	if len(buf) < HeaderLen {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrTruncated, len(buf))
	}
	var f Frame
	copy(f.Dst[:], buf[0:6])
	copy(f.Src[:], buf[6:12])
	f.Type = uint16(buf[12])<<8 | uint16(buf[13])
	f.Payload = buf[HeaderLen:]
	return f, nil
}

// PutHeader encodes an Ethernet II header into b[:HeaderLen], in front of
// a payload already in place behind it.
func PutHeader(b []byte, dst, src MAC, typ uint16) {
	b = b[:HeaderLen]
	copy(b[0:6], dst[:])
	copy(b[6:12], src[:])
	b[12], b[13] = byte(typ>>8), byte(typ)
}
