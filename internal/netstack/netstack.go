// Package netstack assembles the in-TEE network stack — Ethernet, ARP,
// IPv4 (with fragmentation), UDP and TCP — on top of any transport that
// implements nic.Guest (the paper's safe ring, or the virtio/netvsc
// baselines).
//
// This package and everything below it is exactly the code mass that P1
// decides the fate of: at an L2 boundary it sits inside the confidential
// TCB; at L5 it runs on the untrusted host; in the paper's dual-boundary
// design it runs inside the TEE but in a separate, distrusted I/O
// compartment.
package netstack

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"confio/internal/arp"
	"confio/internal/ether"
	"confio/internal/ipv4"
	"confio/internal/nic"
	"confio/internal/tcp"
	"confio/internal/udp"
)

// Stack is one host's network stack bound to a NIC.
type Stack struct {
	g nic.Guest
	// queues is g as a set of batching queues, resolved once at
	// construction: a single-queue transport is a one-queue device.
	queues []nic.BatchGuest
	ip     ipv4.Addr
	mac    ether.MAC

	TCP *tcp.Endpoint

	arpCache *arp.Cache
	reasm    *ipv4.Reassembler

	ping pinger

	mu       sync.Mutex
	udpPorts map[uint16]*UDPSocket
	arpWait  map[ipv4.Addr]arpWaiter
	ipID     uint16
	stats    Stats
	// nicErr records the terminal transport error (fail-dead or host
	// stall) that degraded the stack; set once, never cleared. A
	// degraded stack is dead for good — recovery happens below it
	// (safering.Reincarnate) and a fresh Stack is built on the reborn
	// transport, keeping the stack itself stateless about incarnations.
	nicErr error

	drv nic.Driver
}

// Stats counts stack-level events.
type Stats struct {
	FramesIn, FramesOut uint64
	ARPRequests         uint64
	IPDrops             uint64
	SendDrops           uint64
	// DeadDrops is the subset of SendDrops discarded because the
	// transport underneath had already fail-deaded (the counted UDP/IP
	// losses of graceful degradation; TCP flows get errors instead).
	DeadDrops uint64
}

// arpWaiter is what waits for one neighbour's MAC: copies of frames whose
// IPv4 headers are written and whose Ethernet headers are not, behind the
// ARP request sent at asked.
type arpWaiter struct {
	frames [][]byte
	asked  time.Time
}

const (
	arpPendingMax = 64
	arpPendingTTL = 2 * time.Second
	sendRetries   = 200
)

// New binds a stack to a NIC with the given address. Call Start to begin
// processing.
func New(g nic.Guest, ip ipv4.Addr) *Stack {
	s := &Stack{
		g:        g,
		queues:   nic.GuestQueues(g),
		ip:       ip,
		mac:      ether.MAC(g.MAC()),
		arpCache: arp.NewCache(0),
		reasm:    ipv4.NewReassembler(0, 0),
		udpPorts: make(map[uint16]*UDPSocket),
		arpWait:  make(map[ipv4.Addr]arpWaiter),
	}
	s.TCP = tcp.NewEndpoint(ip, g.MTU(), headroom, s.sendTCP, nil)
	return s
}

// IP returns the stack's address.
func (s *Stack) IP() ipv4.Addr { return s.ip }

// Stats returns a snapshot of the stack counters.
func (s *Stack) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Degraded returns the terminal transport error that degraded the
// stack, or nil while the transport is healthy. errors.Is distinguishes
// a declared host stall (nic.ErrStalled) from any other fail-dead
// (nic.ErrClosed).
func (s *Stack) Degraded() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nicErr
}

// degrade moves the stack into its terminal degraded state after the
// transport died: TCP connections and listeners are torn down with the
// transport error (blocked readers, writers and accepts wake
// immediately), queued ARP waiters are dropped and counted, and every
// later send is a counted drop. UDP receivers keep their normal timeout
// semantics — graceful degradation, not a hang. Idempotent and safe
// from any goroutine.
func (s *Stack) degrade(err error) {
	s.mu.Lock()
	if s.nicErr != nil {
		s.mu.Unlock()
		return
	}
	s.nicErr = err
	for ip, w := range s.arpWait {
		s.stats.SendDrops += uint64(len(w.frames))
		s.stats.DeadDrops += uint64(len(w.frames))
		delete(s.arpWait, ip)
	}
	s.mu.Unlock()
	s.TCP.AbortAll(err)
}

// Start launches the receive/timer loop.
func (s *Stack) Start() {
	r := &rxLoop{
		s:     s,
		burst: make([]nic.Frame, rxBurst),
		wake:  make(chan struct{}, 1),
		parks: make([]nic.Parker, len(s.queues)),
	}
	s.drv.Go(nic.Loop{
		Step: r.step, Spin: rxSpin, Yield: rxSpin, Park: r.park, Unpark: r.unpark, Bound: nic.WaitBound,
		Wakes: func() (a, b <-chan struct{}) { return r.wake, nil },
	})
}

// Close stops the stack's loop. Open connections are not torn down
// gracefully (the TEE is being shut off), but nothing will ever feed them
// again, so their blocked readers, writers and accepts are woken with
// tcp.ErrClosed instead of being left to leak.
func (s *Stack) Close() {
	s.drv.Stop()
	s.TCP.AbortAll(tcp.ErrClosed)
}

// rxBurst bounds the frames drained from the NIC per loop iteration.
const rxBurst = 64

// rxSpin is how many consecutive empty poll rounds the loop burns before
// it parks. Every empty poll of a safe ring is a charged index check, so
// the budget is kept just long enough to catch a reply already in flight.
const rxSpin = 4

// timerScan bounds how stale the cached timer deadline may get, busy or
// idle: nextDeadline walks every connection (TIME-WAIT ones included),
// so it runs once per period, not once per poll. A timer armed by another
// goroutine since the last scan is seen within timerScan plus one wait,
// long before it can fall due: the shortest TCP timer is the 20 ms probe.
const timerScan = time.Millisecond

// rxLoop is the stack's one goroutine as the driver runs it: drain every
// queue, run whichever timers are due, and once idle park on the queues'
// producer indexes (nic.Parker) until a wake, Close, the next timer
// deadline or nic.WaitBound. A transport with nothing to park on is
// polled every WaitBound by the same wait. Only that goroutine touches
// it.
type rxLoop struct {
	s     *Stack
	burst []nic.Frame
	// One wake shared by all queues; each queue's handle is learned from
	// its empty polls (nil: nothing to park on).
	wake              chan struct{}
	parks             []nic.Parker
	deadline, scanned time.Time
}

// step drains every queue once: each gets its own batched dequeue (own
// index validation, own consumer publication), and no queue can starve
// another. One terminal queue error means the whole device fail-deaded
// (fate is shared through the transport latch): the stack degrades and
// the loop ends rather than spin on a dead device. A deadline already
// due is ticked at once.
func (r *rxLoop) step() (bool, time.Time, error) {
	s, worked := r.s, false
	for i, q := range s.queues {
		n, err := q.RecvBatch(r.burst)
		for j := 0; j < n; j++ {
			s.handleFrame(r.burst[j].Bytes())
			r.burst[j].Release()
			r.burst[j] = nil
		}
		if n > 0 {
			worked = true
		}
		if p, ok := err.(nic.Parker); ok {
			r.parks[i] = p
		} else if errors.Is(err, nic.ErrClosed) {
			s.degrade(err)
			return false, time.Time{}, err
		}
	}
	now := time.Now()
	if now.Sub(r.scanned) >= timerScan {
		r.deadline, r.scanned = s.nextDeadline(), now
	}
	if !r.deadline.IsZero() && now.After(r.deadline) {
		s.TCP.Tick()
		s.expireARPWaiters(now)
		r.deadline = s.nextDeadline()
	}
	return worked, r.deadline, nil
}

// park registers the shared wake with every queue that offered a handle
// and reports whether frames already wait on any of them.
func (r *rxLoop) park() bool {
	ready := false
	for _, p := range r.parks {
		if p != nil && p.Park(r.wake) {
			ready = true
		}
	}
	return ready
}

func (r *rxLoop) unpark() {
	for _, p := range r.parks {
		if p != nil {
			p.Unpark()
		}
	}
}

// nextDeadline is the earliest instant a timer of the stack has work:
// TCP's, or the expiry of the oldest unanswered ARP request.
func (s *Stack) nextDeadline() time.Time {
	next := s.TCP.NextDeadline()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.arpWait {
		if t := w.asked.Add(arpPendingTTL); next.IsZero() || t.Before(next) {
			next = t
		}
	}
	return next
}

// expireARPWaiters drops, counted, the frames of every neighbour that has
// not answered its ARP request within arpPendingTTL; the next frame for it
// asks again.
func (s *Stack) expireARPWaiters(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ip, w := range s.arpWait {
		if now.Sub(w.asked) >= arpPendingTTL {
			s.stats.SendDrops += uint64(len(w.frames))
			delete(s.arpWait, ip)
		}
	}
}

// handleFrame processes one inbound Ethernet frame.
func (s *Stack) handleFrame(buf []byte) {
	s.mu.Lock()
	s.stats.FramesIn++
	s.mu.Unlock()

	f, err := ether.Parse(buf)
	if err != nil {
		return
	}
	if f.Dst != s.mac && !f.Dst.IsBroadcast() {
		return
	}
	switch f.Type {
	case ether.TypeARP:
		s.handleARP(f)
	case ether.TypeIPv4:
		s.handleIPv4(f)
	}
}

func (s *Stack) handleARP(f ether.Frame) {
	p, err := arp.Parse(f.Payload)
	if err != nil {
		return
	}
	now := time.Now()
	s.arpCache.Learn(p.SenderIP, p.SenderMAC, now)
	s.flushARPWaiters(ipv4.Addr(p.SenderIP), p.SenderMAC)

	if p.Op == arp.OpRequest && p.TargetIP == [4]byte(s.ip) {
		s.sendARP(p.SenderMAC, arp.ReplyTo(p, s.mac, [4]byte(s.ip)))
	}
}

// flushARPWaiters addresses the frames that were waiting for ip's MAC and
// transmits them as one batch.
func (s *Stack) flushARPWaiters(ip ipv4.Addr, mac ether.MAC) {
	s.mu.Lock()
	w := s.arpWait[ip]
	delete(s.arpWait, ip)
	s.mu.Unlock()
	for _, f := range w.frames {
		s.address(f, mac, ether.TypeIPv4)
	}
	s.sendFrames(w.frames)
}

func (s *Stack) handleIPv4(f ether.Frame) {
	h, payload, err := ipv4.Parse(f.Payload)
	if err != nil {
		s.mu.Lock()
		s.stats.IPDrops++
		s.mu.Unlock()
		return
	}
	if h.Dst != s.ip {
		return
	}
	full, done := s.reasm.Add(h, payload, time.Now())
	if !done {
		return
	}
	switch h.Proto {
	case ipv4.ProtoTCP:
		s.TCP.Input(h.Src, full)
	case ipv4.ProtoUDP:
		s.handleUDP(h.Src, full)
	case ipv4.ProtoICMP:
		s.handleICMP(h.Src, full)
	default:
		s.mu.Lock()
		s.stats.IPDrops++
		s.mu.Unlock()
	}
}

// headroom is what every outbound IPv4 datagram is built behind: room for
// the Ethernet and IPv4 headers, which are written in place in front of
// it once it leaves the socket layer.
const headroom = ether.HeaderLen + ipv4.HeaderLen

// sendTCP transmits one flush of the TCP endpoint. Each segment sits in
// a frame buffer behind headroom, so the IPv4 and Ethernet headers are
// written in place and the buffer goes to the transport as it is — the
// transport's copy into shared memory is the frame's next one — and the
// endpoint takes its buffers back when this returns.
func (s *Stack) sendTCP(b tcp.Batch) {
	id := s.nextIPID(len(b.Pkts))
	for i, pkt := range b.Pkts {
		h := ipv4.Header{ID: id + uint16(i), TTL: 64, Proto: ipv4.ProtoTCP, Src: s.ip, Dst: b.Dst[i]}
		ipv4.PutHeader(pkt[ether.HeaderLen:], h, len(pkt)-headroom)
	}
	s.route(b.Pkts, func(i int) ipv4.Addr { return b.Dst[i] })
}

// sendIP transmits the datagram dgram, its proto payload (never empty:
// a UDP or ICMP header at least) behind headroom, to dst. One that fits
// the MTU is its own frame and gets its IPv4 header in place; a larger
// one is copied out, one frame per fragment, each with its own header.
// Every fragment goes in one batch.
func (s *Stack) sendIP(dst ipv4.Addr, proto byte, dgram []byte) {
	h := ipv4.Header{ID: s.nextIPID(1), TTL: 64, Proto: proto, Src: s.ip, Dst: dst}
	data := dgram[headroom:]
	step := ipv4.FragmentLen(len(data), s.g.MTU())
	frames := make([][]byte, 0, len(data)/step+1) // room for every fragment
	for off := 0; off < len(data); off += step {
		f := dgram // a datagram that fits is its own frame
		if step < len(data) {
			f = make([]byte, headroom+min(step, len(data)-off))
		}
		ipv4.PutFragment(f[ether.HeaderLen:], h, data, off)
		frames = append(frames, f)
	}
	s.route(frames, func(int) ipv4.Addr { return dst })
}

// route transmits IPv4 frames whose IPv4 headers are written, frames[i]
// to the on-link neighbour dst(i). A frame whose neighbour's MAC is cached
// is addressed in place; one whose neighbour's is not is copied behind its
// ARP resolution. frames is permuted, never overwritten.
func (s *Stack) route(frames [][]byte, dst func(i int) ipv4.Addr) {
	now := time.Now()
	ready := 0
	for i, f := range frames {
		mac, ok := s.arpCache.Lookup(dst(i), now)
		if !ok {
			s.awaitARP(dst(i), f, now)
			continue
		}
		s.address(f, mac, ether.TypeIPv4)
		frames[ready], frames[i] = f, frames[ready]
		ready++
	}
	s.sendFrames(frames[:ready])
}

// address writes f's Ethernet header in place, from this stack to the
// next hop mac. Every frame the stack sends is addressed here, once its
// next hop is known.
func (s *Stack) address(f []byte, mac ether.MAC, typ uint16) {
	ether.PutHeader(f, mac, s.mac, typ)
}

// awaitARP queues a copy of frame behind the resolution of dst and asks —
// but only once per outstanding neighbour; the queued frames all ride on
// the same resolution. The copy is what lets the caller's buffer go back
// to its owner while the answer is outstanding.
func (s *Stack) awaitARP(dst ipv4.Addr, frame []byte, now time.Time) {
	s.mu.Lock()
	w, asked := s.arpWait[dst]
	if !asked {
		w.asked = now
		s.stats.ARPRequests++
	}
	if len(w.frames) < arpPendingMax {
		w.frames = append(w.frames, append([]byte(nil), frame...))
	} else {
		s.stats.SendDrops++
	}
	s.arpWait[dst] = w
	s.mu.Unlock()
	if !asked {
		s.sendARP(ether.Broadcast, arp.Request(s.mac, [4]byte(s.ip), [4]byte(dst)))
	}
}

// sendARP transmits p to mac in a frame of its own.
func (s *Stack) sendARP(mac ether.MAC, p arp.Packet) {
	f := make([]byte, ether.HeaderLen+arp.PacketLen)
	arp.Put(f[ether.HeaderLen:], p)
	s.address(f, mac, ether.TypeARP)
	s.sendFrames([][]byte{f})
}

// nextIPID reserves n consecutive datagram IDs and returns the first.
func (s *Stack) nextIPID(n int) uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.ipID + 1
	s.ipID += uint16(n)
	return first
}

// sendFrames transmits encoded Ethernet frames in order, dropping what
// the transport persistently refuses (upper layers recover). Every flow
// is pinned to one queue, chosen from the stack's own frame bytes (never
// a host-supplied queue id); consecutive frames of one queue go out as
// one batched enqueue, so per-flow frame order holds while different
// flows spread across queues and scale. The frames are the caller's
// again on return.
func (s *Stack) sendFrames(frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	s.mu.Lock()
	if s.nicErr != nil {
		// Degraded: every send is a counted drop (UDP semantics; TCP
		// connections were already torn down with the transport error).
		s.stats.SendDrops += uint64(len(frames))
		s.stats.DeadDrops += uint64(len(frames))
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	sent := 0
	var fatal error
	for rest := frames; len(rest) > 0 && fatal == nil; {
		qi, n := nic.QueueFor(rest[0], len(s.queues)), 1
		for n < len(rest) && nic.QueueFor(rest[n], len(s.queues)) == qi {
			n++
		}
		var k int
		k, fatal = sendQueue(s.queues[qi], rest[:n])
		sent += k
		rest = rest[n:]
	}
	s.mu.Lock()
	s.stats.FramesOut += uint64(sent)
	s.stats.SendDrops += uint64(len(frames) - sent)
	if fatal != nil {
		s.stats.DeadDrops += uint64(len(frames) - sent)
	}
	s.mu.Unlock()
	if fatal != nil {
		// A send can observe the death before the receive loop does;
		// degrade from here too so blocked TCP callers never wait for
		// the loop to notice.
		s.degrade(fatal)
	}
}

// sendQueue enqueues frames on q, retrying briefly on backpressure. It
// returns how many q took and the error that means the transport died.
func sendQueue(q nic.BatchGuest, frames [][]byte) (sent int, fatal error) {
	for i := 0; i < sendRetries && sent < len(frames); i++ {
		n, err := q.SendBatch(frames[sent:])
		sent += n
		if err == nil || n > 0 {
			continue // progress: flush the remainder immediately
		}
		// Identity before errors.Is: backpressure is the common refusal
		// and every transport here returns the sentinel bare.
		if err != nic.ErrFull && !errors.Is(err, nic.ErrFull) {
			if errors.Is(err, nic.ErrClosed) {
				fatal = err
			}
			break
		}
		time.Sleep(10 * time.Microsecond)
	}
	return sent, fatal
}

// --- TCP convenience API ---

// Dial opens a TCP connection to dst:port.
func (s *Stack) Dial(dst ipv4.Addr, port uint16, timeout time.Duration) (*tcp.Conn, error) {
	return s.TCP.Dial(dst, port, timeout)
}

// Listen accepts TCP connections on port.
func (s *Stack) Listen(port uint16, backlog int) (*tcp.Listener, error) {
	return s.TCP.Listen(port, backlog)
}

// --- UDP sockets ---

// UDPSocket is a bound UDP port.
type UDPSocket struct {
	s      *Stack
	port   uint16
	queue  chan Datagram
	closed chan struct{}
}

// Datagram is one received UDP datagram.
type Datagram struct {
	Src     ipv4.Addr
	SrcPort uint16
	Payload []byte
}

// ErrPortInUse reports a duplicate UDP bind.
var ErrPortInUse = errors.New("netstack: udp port in use")

// ErrSocketClosed is returned after Close.
var ErrSocketClosed = errors.New("netstack: udp socket closed")

// ErrTimeout reports a receive deadline expiry.
var ErrTimeout = errors.New("netstack: timeout")

// ErrTooLarge reports a UDP payload larger than one IPv4 datagram carries
// (65,507 bytes).
var ErrTooLarge = errors.New("netstack: udp payload too large for an ipv4 datagram")

// OpenUDP binds a UDP socket to port.
func (s *Stack) OpenUDP(port uint16) (*UDPSocket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, used := s.udpPorts[port]; used {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	u := &UDPSocket{s: s, port: port, queue: make(chan Datagram, 256), closed: make(chan struct{})}
	s.udpPorts[port] = u
	return u, nil
}

func (s *Stack) handleUDP(src ipv4.Addr, payload []byte) {
	d, err := udp.Parse(src, s.ip, payload)
	if err != nil {
		s.mu.Lock()
		s.stats.IPDrops++
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	sock := s.udpPorts[d.DstPort]
	s.mu.Unlock()
	if sock == nil {
		return
	}
	cp := make([]byte, len(d.Payload))
	copy(cp, d.Payload)
	select {
	case sock.queue <- Datagram{Src: src, SrcPort: d.SrcPort, Payload: cp}:
	default: // receiver too slow: drop (UDP semantics)
	}
}

// SendTo transmits a datagram. The payload is copied once, into the
// buffer the datagram is built in.
func (u *UDPSocket) SendTo(dst ipv4.Addr, port uint16, payload []byte) error {
	select {
	case <-u.closed:
		return ErrSocketClosed
	default:
	}
	if udp.HeaderLen+len(payload) > ipv4.MaxPayload {
		return ErrTooLarge
	}
	dgram := make([]byte, headroom+udp.HeaderLen+len(payload))
	copy(dgram[headroom+udp.HeaderLen:], payload)
	udp.Put(dgram[headroom:], u.s.ip, dst, u.port, port)
	u.s.sendIP(dst, ipv4.ProtoUDP, dgram)
	return nil
}

// RecvFrom returns the next datagram, or ErrTimeout / ErrSocketClosed.
func (u *UDPSocket) RecvFrom(timeout time.Duration) (Datagram, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	select {
	case d := <-u.queue:
		return d, nil
	case <-u.closed:
		return Datagram{}, ErrSocketClosed
	case <-time.After(timeout):
		return Datagram{}, ErrTimeout
	}
}

// Port returns the bound port.
func (u *UDPSocket) Port() uint16 { return u.port }

// Close releases the port.
func (u *UDPSocket) Close() {
	u.s.mu.Lock()
	defer u.s.mu.Unlock()
	select {
	case <-u.closed:
		return
	default:
	}
	close(u.closed)
	delete(u.s.udpPorts, u.port)
}
