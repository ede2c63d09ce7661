package netstack

import (
	"encoding/binary"
	"sync"
	"time"

	"confio/internal/ipv4"
)

// ICMP echo support: the stack answers pings and can issue them —
// the standard liveness probe for the simulated networks, and a second
// exerciser of the IP layer beyond TCP/UDP.

const (
	icmpEchoReply   = 0
	icmpEchoRequest = 8
)

type pingKey struct {
	id, seq uint16
}

type pinger struct {
	mu      sync.Mutex
	nextID  uint16
	waiters map[pingKey]chan time.Duration
}

func (p *pinger) init() {
	if p.waiters == nil {
		p.waiters = make(map[pingKey]chan time.Duration)
	}
}

// handleICMP processes an inbound ICMP message.
func (s *Stack) handleICMP(src ipv4.Addr, payload []byte) {
	if len(payload) < 8 {
		return
	}
	if ipv4.Checksum(payload) != 0 {
		s.stats.ipDrops.Add(1)
		return
	}
	typ := payload[0]
	id := binary.BigEndian.Uint16(payload[4:])
	seq := binary.BigEndian.Uint16(payload[6:])

	switch typ {
	case icmpEchoRequest:
		// Reply with the same id/seq/data.
		dgram := make([]byte, headroom+len(payload))
		reply := dgram[headroom:]
		copy(reply, payload)
		reply[0] = icmpEchoReply
		reply[2], reply[3] = 0, 0
		ck := ipv4.Checksum(reply)
		reply[2], reply[3] = byte(ck>>8), byte(ck)
		s.sendIP(src, ipv4.ProtoICMP, dgram)

	case icmpEchoReply:
		s.ping.mu.Lock()
		ch := s.ping.waiters[pingKey{id, seq}]
		s.ping.mu.Unlock()
		if ch != nil {
			select {
			case ch <- 0: // duration filled by the waiter
			default:
			}
		}
	}
}

// Ping sends one ICMP echo request to dst and waits for the reply,
// returning the round-trip time.
func (s *Stack) Ping(dst ipv4.Addr, timeout time.Duration) (time.Duration, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	s.ping.mu.Lock()
	s.ping.init()
	s.ping.nextID++
	key := pingKey{id: s.ping.nextID, seq: 1}
	ch := make(chan time.Duration, 1)
	s.ping.waiters[key] = ch
	s.ping.mu.Unlock()
	defer func() {
		s.ping.mu.Lock()
		delete(s.ping.waiters, key)
		s.ping.mu.Unlock()
	}()

	dgram := make([]byte, headroom+8+16)
	msg := dgram[headroom:]
	msg[0] = icmpEchoRequest
	binary.BigEndian.PutUint16(msg[4:], key.id)
	binary.BigEndian.PutUint16(msg[6:], key.seq)
	copy(msg[8:], "confio-ping-data")
	ck := ipv4.Checksum(msg)
	msg[2], msg[3] = byte(ck>>8), byte(ck)

	start := time.Now()
	s.sendIP(dst, ipv4.ProtoICMP, dgram)
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
		return time.Since(start), nil
	case <-t.C:
		return 0, ErrTimeout
	}
}
