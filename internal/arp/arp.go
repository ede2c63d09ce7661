// Package arp implements the address resolution protocol for IPv4 over
// Ethernet, plus the neighbour cache the in-TEE stack uses.
package arp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"confio/internal/ether"
)

// Op codes.
const (
	OpRequest uint16 = 1
	OpReply   uint16 = 2
)

// PacketLen is the size of an IPv4-over-Ethernet ARP packet.
const PacketLen = 28

// Packet is a parsed ARP packet.
type Packet struct {
	Op        uint16
	SenderMAC ether.MAC
	SenderIP  [4]byte
	TargetMAC ether.MAC
	TargetIP  [4]byte
}

// ErrMalformed reports an unusable ARP packet.
var ErrMalformed = errors.New("arp: malformed packet")

// Parse decodes an ARP packet for IPv4 over Ethernet.
func Parse(buf []byte) (Packet, error) {
	if len(buf) < PacketLen {
		return Packet{}, fmt.Errorf("%w: %d bytes", ErrMalformed, len(buf))
	}
	htype := uint16(buf[0])<<8 | uint16(buf[1])
	ptype := uint16(buf[2])<<8 | uint16(buf[3])
	if htype != 1 || ptype != ether.TypeIPv4 || buf[4] != 6 || buf[5] != 4 {
		return Packet{}, fmt.Errorf("%w: htype=%d ptype=%#x hlen=%d plen=%d", ErrMalformed, htype, ptype, buf[4], buf[5])
	}
	var p Packet
	p.Op = uint16(buf[6])<<8 | uint16(buf[7])
	copy(p.SenderMAC[:], buf[8:14])
	copy(p.SenderIP[:], buf[14:18])
	copy(p.TargetMAC[:], buf[18:24])
	copy(p.TargetIP[:], buf[24:28])
	return p, nil
}

// Put encodes p into b[:PacketLen].
func Put(b []byte, p Packet) {
	// Ethernet, IPv4, their address lengths, the op.
	copy(b, []byte{0, 1, byte(ether.TypeIPv4 >> 8), byte(ether.TypeIPv4 & 0xFF), 6, 4, byte(p.Op >> 8), byte(p.Op)})
	copy(b[8:14], p.SenderMAC[:])
	copy(b[14:18], p.SenderIP[:])
	copy(b[18:24], p.TargetMAC[:])
	copy(b[24:28], p.TargetIP[:])
}

// Cache is a neighbour cache with entry expiry.
type Cache struct {
	mu      sync.Mutex
	entries map[[4]byte]entry
	ttl     time.Duration
}

type entry struct {
	mac     ether.MAC
	expires time.Time
}

// NewCache creates a cache with the given entry TTL (<=0 means 60s).
func NewCache(ttl time.Duration) *Cache {
	if ttl <= 0 {
		ttl = 60 * time.Second
	}
	return &Cache{entries: make(map[[4]byte]entry), ttl: ttl}
}

// Learn records or refreshes a neighbour.
func (c *Cache) Learn(ip [4]byte, mac ether.MAC, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[ip] = entry{mac: mac, expires: now.Add(c.ttl)}
}

// Lookup returns the neighbour's MAC if present and fresh.
func (c *Cache) Lookup(ip [4]byte, now time.Time) (ether.MAC, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[ip]
	if !ok || now.After(e.expires) {
		if ok {
			delete(c.entries, ip)
		}
		return ether.MAC{}, false
	}
	return e.mac, true
}

// Len returns the number of live entries (expired ones included until
// their next Lookup).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Request builds an ARP request asking for targetIP.
func Request(selfMAC ether.MAC, selfIP, targetIP [4]byte) Packet {
	return Packet{Op: OpRequest, SenderMAC: selfMAC, SenderIP: selfIP, TargetIP: targetIP}
}

// ReplyTo builds the reply to a request for selfIP.
func ReplyTo(req Packet, selfMAC ether.MAC, selfIP [4]byte) Packet {
	return Packet{Op: OpReply, SenderMAC: selfMAC, SenderIP: selfIP, TargetMAC: req.SenderMAC, TargetIP: req.SenderIP}
}
