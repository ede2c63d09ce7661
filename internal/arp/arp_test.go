package arp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"confio/internal/ether"
)

var (
	macA = ether.MAC{2, 0, 0, 0, 0, 0xA}
	macB = ether.MAC{2, 0, 0, 0, 0, 0xB}
	ipA  = [4]byte{10, 0, 0, 1}
	ipB  = [4]byte{10, 0, 0, 2}
)

// packet encodes p into a buffer of its own.
func packet(p Packet) []byte {
	b := make([]byte, PacketLen)
	Put(b, p)
	return b
}

func TestRoundTrip(t *testing.T) {
	p := Packet{Op: OpReply, SenderMAC: macA, SenderIP: ipA, TargetMAC: macB, TargetIP: ipB}
	// Put sets every byte: a buffer holding a previous frame's bytes
	// reads back as p alone.
	buf := bytes.Repeat([]byte{0xFF}, PacketLen)
	Put(buf, p)
	got, err := Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip: %+v != %+v", got, p)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	if _, err := Parse(make([]byte, 27)); !errors.Is(err, ErrMalformed) {
		t.Fatal("short packet accepted")
	}
	good := packet(Request(macA, ipA, ipB))
	bad := append([]byte{}, good...)
	bad[0], bad[1] = 9, 9 // htype
	if _, err := Parse(bad); !errors.Is(err, ErrMalformed) {
		t.Fatal("bad htype accepted")
	}
	bad2 := append([]byte{}, good...)
	bad2[4] = 8 // hlen
	if _, err := Parse(bad2); !errors.Is(err, ErrMalformed) {
		t.Fatal("bad hlen accepted")
	}
}

func TestRequestReply(t *testing.T) {
	req := Request(macA, ipA, ipB)
	if req.Op != OpRequest || req.SenderMAC != macA || req.TargetIP != ipB {
		t.Fatalf("bad request %+v", req)
	}
	rep := ReplyTo(req, macB, ipB)
	if rep.Op != OpReply || rep.SenderMAC != macB || rep.TargetMAC != macA || rep.TargetIP != ipA {
		t.Fatalf("bad reply %+v", rep)
	}
}

func TestCacheLearnLookupExpire(t *testing.T) {
	c := NewCache(time.Second)
	now := time.Unix(1000, 0)
	if _, ok := c.Lookup(ipB, now); ok {
		t.Fatal("empty cache hit")
	}
	c.Learn(ipB, macB, now)
	if got, ok := c.Lookup(ipB, now.Add(500*time.Millisecond)); !ok || got != macB {
		t.Fatal("fresh entry missed")
	}
	if _, ok := c.Lookup(ipB, now.Add(2*time.Second)); ok {
		t.Fatal("expired entry returned")
	}
	if c.Len() != 0 {
		t.Fatal("expired entry not evicted on lookup")
	}
	// Refresh extends.
	c.Learn(ipB, macB, now)
	c.Learn(ipB, macB, now.Add(900*time.Millisecond))
	if _, ok := c.Lookup(ipB, now.Add(1500*time.Millisecond)); !ok {
		t.Fatal("refreshed entry expired")
	}
}

func TestCacheDefaultTTL(t *testing.T) {
	c := NewCache(0)
	now := time.Unix(0, 0)
	c.Learn(ipA, macA, now)
	if _, ok := c.Lookup(ipA, now.Add(59*time.Second)); !ok {
		t.Fatal("default TTL shorter than 60s")
	}
}
