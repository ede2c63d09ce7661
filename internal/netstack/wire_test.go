package netstack_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"confio/internal/arp"
	"confio/internal/ether"
	"confio/internal/ipv4"
	"confio/internal/safering"
	"confio/internal/tcp"
	"confio/internal/udp"
)

// Reference encoders: the append-style Marshal functions ether, arp, ipv4,
// udp and tcp had while a second, copying transmit path used them. Each
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

func refUDP(src, dst ipv4.Addr, srcPort, dstPort uint16, payload []byte) []byte {
	length := udp.HeaderLen + len(payload)
	b := []byte{byte(srcPort >> 8), byte(srcPort), byte(dstPort >> 8), byte(dstPort),
		byte(length >> 8), byte(length), 0, 0}
	b = append(b, payload...)
	ck := ipv4.TransportChecksum(src, dst, ipv4.ProtoUDP, b)
	if ck == 0 {
		ck = 0xFFFF
	}
	b[6], b[7] = byte(ck>>8), byte(ck)
	return b
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
		if errors.Is(err, safering.ErrRingEmpty) {
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

// echoRequest is an ICMP echo request from the host to the stack.
func echoRequest(id uint16, data []byte) []byte {
	msg := append([]byte{8, 0, 0, 0, byte(id >> 8), byte(id), 0, 1}, data...)
	ck := ipv4.Checksum(msg)
	msg[2], msg[3] = byte(ck>>8), byte(ck)
	h := ipv4.Header{ID: id, TTL: 64, Proto: ipv4.ProtoICMP, Src: hostIP, Dst: stackIP}
	return refEther(stackMAC, hostMAC, ether.TypeIPv4, refIPv4(h, msg))
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
	seg := payload // a fragment, or ICMP: the stack's bytes are the message
	if h.Flags&ipv4.FlagMF == 0 && h.FragOff == 0 {
		switch h.Proto {
		case ipv4.ProtoUDP:
			d, err := udp.Parse(h.Src, h.Dst, payload)
			if err != nil {
				t.Fatal(err)
			}
			seg = refUDP(h.Src, h.Dst, d.SrcPort, d.DstPort, d.Payload)
		case ipv4.ProtoTCP:
			th, data, err := tcp.Parse(h.Src, h.Dst, payload)
			if err != nil {
				t.Fatal(err)
			}
			seg = refTCP(h.Src, h.Dst, th, data)
		case ipv4.ProtoICMP:
			if ipv4.Checksum(payload) != 0 {
				t.Fatal("ICMP message with a bad checksum")
			}
		}
	}
	return refEther(f.Dst, f.Src, f.Type, refIPv4(h, seg))
}

// TestWireBytesMatchReference captures, from the host side, every kind of
// frame the stack builds in place — an ARP request and reply, an ICMP echo
// reply, a 1,400 B UDP datagram, a 5,000 B one in four fragments, and a
// TCP SYN that waited behind ARP — and requires each to be byte for byte
// what the reference encoders make of its parsed header values.
func TestWireBytesMatchReference(t *testing.T) {
	st, hp := oneStack(t)
	u, err := st.OpenUDP(4000)
	if err != nil {
		t.Fatal(err)
	}
	same := func(name string, frame []byte) []byte {
		t.Helper()
		if want := reencode(t, frame); !bytes.Equal(frame, want) {
			t.Fatalf("%s: the stack sent\n% x\nthe reference encodes\n% x", name, frame, want)
		}
		return frame
	}
	payload := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*13 + 5)
		}
		return p
	}

	// A datagram to an unknown neighbour asks for it, and goes once the
	// answer is in.
	if err := u.SendTo(hostIP, 9, payload(1400)); err != nil {
		t.Fatal(err)
	}
	req, _ := arp.Parse(same("ARP request", pop(t, hp))[ether.HeaderLen:])
	if req.Op != arp.OpRequest || req.TargetIP != [4]byte(hostIP) {
		t.Fatalf("not a request for the host: %+v", req)
	}
	introduce(t, hp, hostIP, hostMAC)
	same("UDP 1,400 B behind ARP", pop(t, hp))

	push(t, hp, arpFrame(ether.Broadcast, arp.Request(hostMAC, [4]byte(hostIP), [4]byte(stackIP))))
	rep, _ := arp.Parse(same("ARP reply", pop(t, hp))[ether.HeaderLen:])
	if rep.Op != arp.OpReply || rep.TargetMAC != hostMAC {
		t.Fatalf("not a reply to the host: %+v", rep)
	}

	push(t, hp, echoRequest(3, payload(56)))
	if f := same("ICMP echo reply", pop(t, hp)); f[ether.HeaderLen+ipv4.HeaderLen] != 0 {
		t.Fatalf("ICMP type %d, want an echo reply", f[ether.HeaderLen+ipv4.HeaderLen])
	}

	if err := u.SendTo(hostIP, 9, payload(1400)); err != nil {
		t.Fatal(err)
	}
	same("UDP 1,400 B", pop(t, hp))

	big := payload(5000)
	if err := u.SendTo(hostIP, 9, big); err != nil {
		t.Fatal(err)
	}
	r := ipv4.NewReassembler(0, 0)
	var whole []byte
	for i := 0; i < 4; i++ {
		h, body, err := ipv4.Parse(same("UDP 5,000 B fragment", pop(t, hp))[ether.HeaderLen:])
		if err != nil {
			t.Fatal(err)
		}
		if out, done := r.Add(h, body, time.Now()); done != (i == 3) {
			t.Fatalf("fragment %d of 4: reassembled %v", i, done)
		} else if done {
			whole = out
		}
	}
	if want := refUDP(stackIP, hostIP, 4000, 9, big); !bytes.Equal(whole, want) {
		t.Fatal("the fragments do not reassemble to the reference datagram")
	}

	peerIP, peerMAC := ipv4.Addr{10, 0, 0, 10}, ether.MAC{0x02, 0, 0, 0, 0, 0x10}
	dialed := make(chan struct{})
	go func() {
		defer close(dialed)
		st.Dial(peerIP, 80, 300*time.Millisecond)
	}()
	same("ARP request for the SYN", pop(t, hp))
	introduce(t, hp, peerIP, peerMAC)
	syn := same("TCP SYN behind ARP", pop(t, hp))
	if syn[ether.HeaderLen+ipv4.HeaderLen+13] != tcp.FlagSYN {
		t.Fatalf("flags %#x, want a bare SYN", syn[ether.HeaderLen+ipv4.HeaderLen+13])
	}
	<-dialed
}
