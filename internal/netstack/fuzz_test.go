package netstack_test

import (
	"encoding/binary"
	"testing"
	"time"

	"confio/internal/arp"
	"confio/internal/ether"
	"confio/internal/ipv4"
	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/tcp"
)

// sink is a device the fuzzer feeds by hand: it never has a frame to
// receive and takes every frame the stack sends.
type sink struct{}

func (sink) Send([]byte) error        { return nil }
func (sink) Recv() (nic.Frame, error) { return nil, nic.ErrEmpty }
func (sink) MAC() [6]byte             { return stackMAC }
func (sink) MTU() int                 { return 1500 }

// fuzzFrames joins frames the way FuzzInbound splits its input: each
// behind its two-byte length.
func fuzzFrames(frames ...[]byte) []byte {
	var b []byte
	for _, f := range frames {
		b = binary.BigEndian.AppendUint16(b, uint16(len(f)))
		b = append(b, f...)
	}
	return b
}

// fragmentFrame is a fragment from the host of the datagram ID 1 carrying
// proto: n zero bytes at offset off, with MF as flags says.
func fragmentFrame(proto byte, off, n uint16, flags uint8) []byte {
	h := ipv4.Header{ID: 1, Flags: flags, FragOff: off, TTL: 64, Proto: proto, Src: hostIP, Dst: stackIP}
	return refEther(stackMAC, hostMAC, ether.TypeIPv4, refIPv4(h, make([]byte, n)))
}

// FuzzInbound drives the stack's receive path with what a hostile host
// puts on its device: a sequence of arbitrary Ethernet frames, each behind
// a two-byte length, handed to the stack one by one on a fixed clock with
// a listener on port 80. The stack must never panic, and every IPv4
// datagram to it that is not one whole TCP segment — another protocol, or
// a fragment — must be counted in IPDrops and reach nothing: TCP's
// counters hold and nothing is sent in answer.
func FuzzInbound(f *testing.F) {
	// The reassembler's hostile seeds — the fragments that once crashed
	// it, and a last fragment ahead of the first — as TCP and as UDP, and
	// a whole UDP datagram.
	for _, proto := range []byte{ipv4.ProtoTCP, 17} {
		f.Add(fuzzFrames(fragmentFrame(proto, 0, 200, ipv4.FlagMF), fragmentFrame(proto, 200, 8, ipv4.FlagMF),
			fragmentFrame(proto, 8, 8, 0)))
		f.Add(fuzzFrames(fragmentFrame(proto, 8, 8, 0), fragmentFrame(proto, 0, 8, ipv4.FlagMF)))
	}
	f.Add(fuzzFrames(fragmentFrame(17, 0, 8, 0)))
	// An ARP request, then a valid SYN to the listener and its half of the
	// handshake's end.
	f.Add(fuzzFrames(
		arpFrame(ether.Broadcast, arp.Request(hostMAC, [4]byte(hostIP), [4]byte(stackIP))),
		tcpFrame(tcp.Header{SrcPort: 4444, DstPort: 80, Seq: 1000, Flags: tcp.FlagSYN, Window: 65535, MSS: 1460}, nil),
		tcpFrame(tcp.Header{SrcPort: 4444, DstPort: 80, Seq: 1001, Ack: 1, Flags: tcp.FlagACK, Window: 65535}, nil)))
	epoch := time.Unix(1<<30, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		st := netstack.NewWithClock(sink{}, stackIP, func() time.Time { return epoch })
		if _, err := st.Listen(80, 4); err != nil {
			t.Fatal(err)
		}
		for len(data) >= 2 {
			n := min(int(binary.BigEndian.Uint16(data)), len(data)-2)
			frame := data[2 : 2+n]
			data = data[2+n:]
			before, tcpBefore := st.Stats(), st.TCP.Stats()
			netstack.HandleFrame(st, frame)
			if !droppedAtIP(frame) {
				continue
			}
			after := st.Stats()
			if after.IPDrops != before.IPDrops+1 {
				t.Fatalf("a datagram that is not one whole TCP segment moved IPDrops %d -> %d", before.IPDrops, after.IPDrops)
			}
			if after.FramesOut != before.FramesOut || st.TCP.Stats() != tcpBefore {
				t.Fatalf("a datagram that is not one whole TCP segment reached the stack: frames out %d -> %d, tcp %+v -> %+v",
					before.FramesOut, after.FramesOut, tcpBefore, st.TCP.Stats())
			}
		}
	})
}

// droppedAtIP reports whether frame is a valid IPv4 datagram to the stack
// that is not one whole TCP segment.
func droppedAtIP(frame []byte) bool {
	f, err := ether.Parse(frame)
	if err != nil || f.Type != ether.TypeIPv4 || (f.Dst != stackMAC && !f.Dst.IsBroadcast()) {
		return false
	}
	h, _, err := ipv4.Parse(f.Payload)
	if err != nil || h.Dst != stackIP {
		return false
	}
	return h.Proto != ipv4.ProtoTCP || h.Flags&ipv4.FlagMF != 0 || h.FragOff != 0
}
