package netstack_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"confio/internal/arp"
	"confio/internal/ether"
	"confio/internal/ipv4"
	"confio/internal/nic"
	"confio/internal/safering"
	"confio/internal/tcp"
)

// Reference encoders: the append-style Marshal functions ether, arp, ipv4
// and tcp had while a second, copying transmit path used them. Each
// appends a header and then its payload. The stack now builds every
// frame in place; TestWireBytesMatchReference holds it to these bytes.

func refEther(dst, src ether.MAC, typ uint16, payload []byte) []byte {
	b := append(append([]byte(nil), dst[:]...), src[:]...)
	return append(append(b, byte(typ>>8), byte(typ)), payload...)
}

func refARP(p arp.Packet) []byte {
	b := []byte{0, 1, 0x08, 0x00, 6, 4, byte(p.Op >> 8), byte(p.Op)}
	b = append(append(b, p.SenderMAC[:]...), p.SenderIP[:]...)
	return append(append(b, p.TargetMAC[:]...), p.TargetIP[:]...)
}

func refIPv4(h ipv4.Header, payload []byte) []byte {
	total := ipv4.HeaderLen + len(payload)
	frag := uint16(h.Flags)<<13 | h.FragOff/8
	b := []byte{0x45, 0, byte(total >> 8), byte(total), byte(h.ID >> 8), byte(h.ID),
		byte(frag >> 8), byte(frag), h.TTL, h.Proto, 0, 0}
	b = append(append(b, h.Src[:]...), h.Dst[:]...)
	ck := ipv4.Checksum(b)
	b[10], b[11] = byte(ck>>8), byte(ck)
	return append(b, payload...)
}

func refTCP(src, dst ipv4.Addr, h tcp.Header, payload []byte) []byte {
	dataOff := 20
	if h.MSS != 0 {
		dataOff += 4
	}
	b := []byte{byte(h.SrcPort >> 8), byte(h.SrcPort), byte(h.DstPort >> 8), byte(h.DstPort),
		byte(h.Seq >> 24), byte(h.Seq >> 16), byte(h.Seq >> 8), byte(h.Seq),
		byte(h.Ack >> 24), byte(h.Ack >> 16), byte(h.Ack >> 8), byte(h.Ack),
		byte(dataOff/4) << 4, h.Flags, byte(h.Window >> 8), byte(h.Window), 0, 0, 0, 0}
	if h.MSS != 0 {
		b = append(b, 2, 4, byte(h.MSS>>8), byte(h.MSS))
	}
	b = append(b, payload...)
	ck := ipv4.TransportChecksum(src, dst, ipv4.ProtoTCP, b)
	b[16], b[17] = byte(ck>>8), byte(ck)
	return b
}

// The host side of oneStack's device, as the tests below play it.
var (
	stackIP  = ipv4.Addr{10, 0, 0, 7}
	stackMAC = ether.MAC{0x02, 0x00, 0x00, 0xC1, 0x0A, 0x77}
	hostIP   = ipv4.Addr{10, 0, 0, 9}
	hostMAC  = ether.MAC{0x02, 0, 0, 0, 0, 0x09}
)

// push delivers frame to the stack.
func push(t *testing.T, hp *safering.HostPort, frame []byte) {
	t.Helper()
	if err := hp.Push(frame); err != nil {
		t.Fatal(err)
	}
}

// pop returns the next frame the stack transmitted.
func pop(t *testing.T, hp *safering.HostPort) []byte {
	t.Helper()
	buf := make([]byte, safering.DefaultConfig().FrameCap())
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		n, err := hp.Pop(buf)
		if errors.Is(err, nic.ErrEmpty) {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		return buf[:n]
	}
	t.Fatal("the stack transmitted nothing")
	return nil
}

// arpFrame is an ARP packet from the host, in its frame.
func arpFrame(dst ether.MAC, p arp.Packet) []byte {
	return refEther(dst, p.SenderMAC, ether.TypeARP, refARP(p))
}

// introduce tells the stack where ip lives, with an ARP reply from mac.
func introduce(t *testing.T, hp *safering.HostPort, ip ipv4.Addr, mac ether.MAC) {
	t.Helper()
	rep := arp.Packet{Op: arp.OpReply, SenderMAC: mac, SenderIP: ip, TargetMAC: stackMAC, TargetIP: stackIP}
	push(t, hp, arpFrame(stackMAC, rep))
}

// tcpFrame is a TCP segment from the host to the stack, in its frame.
func tcpFrame(h tcp.Header, payload []byte) []byte {
	ih := ipv4.Header{TTL: 64, Proto: ipv4.ProtoTCP, Src: hostIP, Dst: stackIP}
	return refEther(stackMAC, hostMAC, ether.TypeIPv4, refIPv4(ih, refTCP(hostIP, stackIP, h, payload)))
}

// reencode parses a frame the stack sent layer by layer and builds it
// again with the reference encoders from the parsed values alone.
func reencode(t *testing.T, frame []byte) []byte {
	t.Helper()
	f, err := ether.Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if f.Src != stackMAC {
		t.Fatalf("frame from %v, not the stack", f.Src)
	}
	if f.Type == ether.TypeARP {
		p, err := arp.Parse(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return refEther(f.Dst, f.Src, f.Type, refARP(p))
	}
	h, payload, err := ipv4.Parse(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if h.Proto != ipv4.ProtoTCP || h.Flags&ipv4.FlagMF != 0 || h.FragOff != 0 {
		t.Fatalf("the stack sent a datagram that is not one whole TCP segment: %+v", h)
	}
	th, data, err := tcp.Parse(h.Src, h.Dst, payload)
	if err != nil {
		t.Fatal(err)
	}
	seg := refTCP(h.Src, h.Dst, th, data)
	return refEther(f.Dst, f.Src, f.Type, refIPv4(h, seg))
}

// TestWireBytesMatchReference captures, from the host side, every kind of
// frame the stack builds in place — an ARP reply, an ARP request, a TCP
// SYN that waited behind it, the handshake's ACK and a 1,000 B data
// segment — and requires each to be byte for byte what the reference
// encoders make of its parsed header values.
func TestWireBytesMatchReference(t *testing.T) {
	st, hp := oneStack(t)
	same := func(name string, frame []byte) []byte {
		t.Helper()
		if want := reencode(t, frame); !bytes.Equal(frame, want) {
			t.Fatalf("%s: the stack sent\n% x\nthe reference encodes\n% x", name, frame, want)
		}
		return frame
	}
	// segment is the TCP header of a frame the stack sent, and its data.
	segment := func(frame []byte) (tcp.Header, []byte) {
		t.Helper()
		h, payload, _ := ipv4.Parse(frame[ether.HeaderLen:])
		th, data, err := tcp.Parse(h.Src, h.Dst, payload)
		if err != nil {
			t.Fatal(err)
		}
		return th, data
	}

	push(t, hp, arpFrame(ether.Broadcast, arp.Request(hostMAC, [4]byte(hostIP), [4]byte(stackIP))))
	rep, _ := arp.Parse(same("ARP reply", pop(t, hp))[ether.HeaderLen:])
	if rep.Op != arp.OpReply || rep.TargetMAC != hostMAC {
		t.Fatalf("not a reply to the host: %+v", rep)
	}

	// A SYN to an unknown neighbour asks for it, and goes once the answer
	// is in.
	peerIP, peerMAC := ipv4.Addr{10, 0, 0, 10}, ether.MAC{0x02, 0, 0, 0, 0, 0x10}
	dialed := make(chan *tcp.Conn, 1)
	go func() {
		c, _ := st.Dial(peerIP, 80, 5*time.Second)
		dialed <- c
	}()
	req, _ := arp.Parse(same("ARP request", pop(t, hp))[ether.HeaderLen:])
	if req.Op != arp.OpRequest || req.TargetIP != [4]byte(peerIP) {
		t.Fatalf("not a request for the peer: %+v", req)
	}
	introduce(t, hp, peerIP, peerMAC)
	syn, _ := segment(same("TCP SYN behind ARP", pop(t, hp)))
	if syn.Flags != tcp.FlagSYN {
		t.Fatalf("flags %#x, want a bare SYN", syn.Flags)
	}

	// The peer answers; a retransmitted SYN, should one race the answer,
	// is checked too and skipped.
	synAck := tcp.Header{SrcPort: 80, DstPort: syn.SrcPort, Seq: 5000, Ack: syn.Seq + 1,
		Flags: tcp.FlagSYN | tcp.FlagACK, Window: 65535, MSS: 1460}
	ih := ipv4.Header{TTL: 64, Proto: ipv4.ProtoTCP, Src: peerIP, Dst: stackIP}
	push(t, hp, refEther(stackMAC, peerMAC, ether.TypeIPv4, refIPv4(ih, refTCP(peerIP, stackIP, synAck, nil))))
	next := func(name string) (tcp.Header, []byte) {
		t.Helper()
		for {
			h, data := segment(same(name, pop(t, hp)))
			if h.Flags != tcp.FlagSYN {
				return h, data
			}
		}
	}
	if ack, _ := next("TCP ACK of the SYN-ACK"); ack.Flags != tcp.FlagACK || ack.Ack != synAck.Seq+1 {
		t.Fatalf("%+v, want the handshake's ACK", ack)
	}
	c := <-dialed
	if c == nil {
		t.Fatal("the dial did not complete")
	}
	defer c.Abort()
	msg := make([]byte, 1000)
	for i := range msg {
		msg[i] = byte(i*13 + 5)
	}
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if h, data := next("TCP 1,000 B data segment"); !bytes.Equal(data, msg) || h.Seq != syn.Seq+1 {
		t.Fatalf("data segment %+v carries %d bytes, want the %d written at %d", h, len(data), len(msg), syn.Seq+1)
	}
}
