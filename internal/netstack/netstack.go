// Package netstack assembles the in-TEE network stack — Ethernet, ARP,
// IPv4 and TCP — on top of any transport that implements nic.Guest (the
// paper's safe ring, or the virtio/netvsc baselines). It carries the
// traffic the designs send and nothing else: no UDP, no ICMP, and no
// fragment reassembly, so a host-supplied fragment is one compare and a
// counted drop.
//
// This package and everything below it is exactly the code mass that P1
// decides the fate of: at an L2 boundary it sits inside the confidential
// TCB; at L5 it runs on the untrusted host; in the paper's dual-boundary
// design it runs inside the TEE but in a separate, distrusted I/O
// compartment.
package netstack

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"confio/internal/arp"
	"confio/internal/ether"
	"confio/internal/ipv4"
	"confio/internal/nic"
	"confio/internal/tcp"
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

	// now is the stack's one clock, TCP's too.
	now func() time.Time

	mu      sync.Mutex
	arpWait map[ipv4.Addr]arpWaiter
	ipID    atomic.Uint32
	stats   counters
	// nicErr records the terminal transport error (fail-dead or host
	// stall) that degraded the stack; set once, under mu, never cleared.
	// A degraded stack is dead for good — recovery happens below it
	// (safering.Reincarnate) and a fresh Stack is built on the reborn
	// transport, keeping the stack itself stateless about incarnations.
	nicErr atomic.Pointer[error]

	rx  *rxLoop
	drv nic.Driver
}

// Stats counts stack-level events.
type Stats struct {
	FramesIn, FramesOut uint64
	ARPRequests         uint64
	IPDrops             uint64
	SendDrops           uint64
	// DeadDrops is the subset of SendDrops discarded because the
	// transport underneath had already fail-deaded (the counted losses
	// of graceful degradation; TCP flows get errors instead).
	DeadDrops uint64
}

// counters are the Stats, bumped without mu. A dead drop is counted a
// send drop first and Stats reads it first, so every snapshot keeps
// DeadDrops within SendDrops.
type counters struct {
	framesIn, framesOut, arpRequests, ipDrops, sendDrops, deadDrops atomic.Uint64
}

// drop counts n frames the stack did not send; dead ones died with the
// transport.
func (c *counters) drop(n int, dead bool) {
	c.sendDrops.Add(uint64(n))
	if dead {
		c.deadDrops.Add(uint64(n))
	}
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
func New(g nic.Guest, ip ipv4.Addr) *Stack { return newStack(g, ip, time.Now) }

func newStack(g nic.Guest, ip ipv4.Addr, now func() time.Time) *Stack {
	s := &Stack{
		now:      now,
		g:        g,
		queues:   nic.GuestQueues(g),
		ip:       ip,
		mac:      ether.MAC(g.MAC()),
		arpCache: arp.NewCache(0),
		arpWait:  make(map[ipv4.Addr]arpWaiter),
	}
	s.rx = &rxLoop{s: s, burst: make([]nic.Frame, rxBurst), parks: make([]nic.Parker, len(s.queues)),
		wake: make(chan struct{}, 1), drive: make(chan struct{}, 1), pool: sync.Pool{New: func() any { return new(nic.Waiter) }}}
	s.TCP = tcp.NewEndpoint(ip, g.MTU(), headroom, s.sendTCP, now, s.rx.wait)
	return s
}

// IP returns the stack's address.
func (s *Stack) IP() ipv4.Addr { return s.ip }

// Stats returns a snapshot of the stack counters.
func (s *Stack) Stats() Stats {
	c := &s.stats
	dead := c.deadDrops.Load() // first: see counters
	return Stats{FramesIn: c.framesIn.Load(), FramesOut: c.framesOut.Load(), ARPRequests: c.arpRequests.Load(),
		IPDrops: c.ipDrops.Load(), SendDrops: c.sendDrops.Load(), DeadDrops: dead}
}

// Degraded returns the terminal transport error that degraded the
// stack, or nil while the transport is healthy. errors.Is distinguishes
// a declared host stall (nic.ErrStalled) from any other fail-dead
// (nic.ErrClosed).
func (s *Stack) Degraded() error {
	if err := s.nicErr.Load(); err != nil {
		return *err
	}
	return nil
}

// degrade moves the stack into its terminal degraded state after the
// transport died: TCP connections and listeners are torn down with the
// transport error (blocked readers, writers and accepts wake
// immediately, and a later Dial or Listen fails at once with it), queued
// ARP waiters are dropped and counted, and every later send is a counted
// drop — graceful degradation, not a hang. Idempotent and safe from any
// goroutine.
func (s *Stack) degrade(err error) {
	s.mu.Lock()
	if s.nicErr.Load() != nil {
		s.mu.Unlock()
		return
	}
	s.nicErr.Store(&err)
	for ip, w := range s.arpWait {
		s.stats.drop(len(w.frames), true)
		delete(s.arpWait, ip)
	}
	s.mu.Unlock()
	s.TCP.AbortAll(err)
}

// Start launches the receive/timer loop: the fallback for timers, ARP
// and traffic no goroutine is blocked waiting for (rxLoop.wait).
func (s *Stack) Start() {
	s.drv.Go(nic.Loop{
		Step: s.rx.step, Spin: rxSpin, Yield: rxSpin, Park: s.rx.park, Unpark: s.rx.unpark, Bound: nic.WaitBound,
		Wake: func() <-chan struct{} { return s.rx.wake },
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
// before it can fall due: the shortest TCP timer is the 5 ms delayed ACK.
const timerScan = time.Millisecond

// rxLoop is the stack's receive poller: drain every queue, run whichever
// timers are due, and once idle park on the queues' producer indexes
// (nic.Parker) until a wake, Close, the next timer deadline or
// nic.WaitBound. A transport with nothing to park on is polled every
// WaitBound by the same wait. Two kinds of goroutine step it, one at a
// time under token: the loop goroutine the driver runs (step), and every
// goroutine blocked in tcp (wait), which only drains and parks: the
// clock, the timer scan and Tick are the loop goroutine's.
type rxLoop struct {
	s     *Stack
	token sync.Mutex // held across poll and every park, unpark or hand-back
	burst []nic.Frame
	// The queues' wake is the loop goroutine's (wake) or, while anyone is
	// in wait, the waiters' (drive); each queue's handle is learned from
	// its empty polls (nil: nothing to park on).
	wake, drive       chan struct{}
	parks             []nic.Parker
	deadline, scanned time.Time
	waiters           atomic.Int32
	pool              sync.Pool // of *nic.Waiter, one per blocked goroutine
}

// wait is the stack's tcp wait (tcp.Endpoint's block): a goroutine
// blocked in Read, Write or Dial steps the receive poller itself, so a
// reply goes from ring to reader with no hand-off between goroutines.
// Each round it steps once under the token, parks the queues on drive
// and re-checks (the Dekker order of nic.Parker), then waits for ch,
// drive or its deadline. A wait with no deadline has no timer of its
// own: while anyone waits, the loop goroutine steps every nic.WaitBound,
// and what it dequeues fires ch — so an idle reader costs nothing, and
// a late or lost wake costs at most the bound.
func (r *rxLoop) wait(ch <-chan struct{}, deadline time.Time) error {
	w := r.pool.Get().(*nic.Waiter)
	defer r.pool.Put(w)
	r.waiters.Add(1)
	defer r.leave()
	for {
		_, _, err := r.poll(false)
		ready := err == nil && r.park()
		select {
		case <-ch:
			return nil
		default:
		}
		d := time.Duration(1<<63 - 1) // no deadline: the loop goroutine bounds the wait
		if !deadline.IsZero() {
			if d = deadline.Sub(r.s.now()); d <= 0 {
				return tcp.ErrTimeout
			}
		}
		if !ready && !w.Wait(ch, r.drive, d) {
			return nil
		}
	}
}

// leave hands the queues back to the loop goroutine once the last waiter
// goes: its wake is parked again, and poked if frames already wait, so
// traffic nobody waits for is found on the index store, not the bound.
func (r *rxLoop) leave() {
	if r.waiters.Add(-1) == 0 && r.park() {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// step is the loop goroutine's poll, timers included.
func (r *rxLoop) step() (bool, time.Time, error) { return r.poll(true) }

// poll drains every queue once: each gets its own batched dequeue (own
// index validation, own consumer publication), and no queue can starve
// another. One terminal queue error means the whole device fail-deaded
// (fate is shared through the transport latch): the stack degrades and
// the loop ends rather than spin on a dead device. With timers, a
// deadline already due is ticked at once. A poll that finds the token
// taken does nothing: whoever holds it is polling.
func (r *rxLoop) poll(timers bool) (bool, time.Time, error) {
	if !r.token.TryLock() {
		return false, time.Time{}, nil
	}
	defer r.token.Unlock()
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
	if !timers {
		return worked, time.Time{}, nil
	}
	now := s.now()
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

// park registers one wake with every queue that offered a handle — drive
// while anyone waits, so the host's store pokes a waiter and the loop
// goroutine sleeps to its bound; the loop's own wake otherwise — and
// reports whether frames already wait on any of them.
func (r *rxLoop) park() bool {
	r.token.Lock()
	defer r.token.Unlock()
	wake, ready := r.wake, false
	if r.waiters.Load() > 0 {
		wake = r.drive
	}
	for _, p := range r.parks {
		if p != nil && p.Park(wake) {
			ready = true
		}
	}
	return ready
}

// unpark withdraws the loop goroutine's wake once it is busy again, but
// never the waiters'.
func (r *rxLoop) unpark() {
	r.token.Lock()
	defer r.token.Unlock()
	for _, p := range r.parks {
		if p != nil && r.waiters.Load() == 0 {
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
			s.stats.drop(len(w.frames), false)
			delete(s.arpWait, ip)
		}
	}
}

// handleFrame processes one inbound Ethernet frame.
func (s *Stack) handleFrame(buf []byte) {
	s.stats.framesIn.Add(1)

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
	now := s.now()
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
		s.stats.ipDrops.Add(1)
		return
	}
	if h.Dst != s.ip {
		return
	}
	// TCP is all the stack carries, and whole: its segments fit the MTU,
	// so any fragment, like any other protocol, is a counted drop.
	if h.Proto != ipv4.ProtoTCP || h.Flags&ipv4.FlagMF != 0 || h.FragOff != 0 {
		s.stats.ipDrops.Add(1)
		return
	}
	s.TCP.Input(h.Src, payload)
}

// headroom is what every outbound TCP segment is built behind: room for
// the Ethernet and IPv4 headers, which are written in place in front of
// it once it leaves the endpoint.
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
	s.route(b.Pkts, b.Dst)
}

// route transmits IPv4 frames whose IPv4 headers are written, frames[i]
// to the on-link neighbour dst[i]. A frame whose neighbour's MAC is cached
// is addressed in place; one whose neighbour's is not is copied behind its
// ARP resolution. frames is permuted, never overwritten.
func (s *Stack) route(frames [][]byte, dst []ipv4.Addr) {
	now := s.now()
	ready := 0
	for i, f := range frames {
		mac, ok := s.arpCache.Lookup(dst[i], now)
		if !ok {
			s.awaitARP(dst[i], f, now)
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
		s.stats.arpRequests.Add(1)
	}
	if len(w.frames) < arpPendingMax {
		w.frames = append(w.frames, append([]byte(nil), frame...))
	} else {
		s.stats.drop(1, false)
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
	return uint16(s.ipID.Add(uint32(n)) - uint32(n) + 1)
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
	if s.nicErr.Load() != nil {
		// Degraded: every send is a counted drop (TCP connections were
		// already torn down with the transport error).
		s.stats.drop(len(frames), true)
		return
	}
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
	s.stats.framesOut.Add(uint64(sent))
	if sent < len(frames) {
		s.stats.drop(len(frames)-sent, fatal != nil)
	}
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
