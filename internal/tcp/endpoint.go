package tcp

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"confio/internal/ipv4"
)

// Tunables. The timers are scaled for a simulated network whose RTT is
// microseconds; the protocol logic is identical to wall-clock TCP.
const (
	defaultMSS  = 1460
	sndBufMax   = 256 << 10
	rcvBufMax   = 256 << 10
	rtoInitial  = 50 * time.Millisecond
	rtoMax      = 2 * time.Second
	maxRetries  = 10
	timeWaitDur = 250 * time.Millisecond
	probeEvery  = 20 * time.Millisecond
	maxOOOSegs  = 128
)

// Endpoint errors.
var (
	ErrRefused        = errors.New("tcp: connection refused")
	ErrReset          = errors.New("tcp: connection reset by peer")
	ErrTimeout        = errors.New("tcp: operation timed out")
	ErrClosed         = errors.New("tcp: connection closed")
	ErrListenerClosed = errors.New("tcp: listener closed")
	ErrPortInUse      = errors.New("tcp: port in use")
	ErrGaveUp         = errors.New("tcp: retransmission limit reached")
)

// Stats counts endpoint-wide protocol events.
type Stats struct {
	SegsIn, SegsOut   uint64
	Retransmits       uint64
	RSTsSent, RSTsIn  uint64
	ChecksumDrops     uint64
	OutOfWindowDrops  uint64
	FastRetransmits   uint64
	ZeroWindowProbes  uint64
	SegmentsReordered uint64
}

type connKey struct {
	rip   ipv4.Addr
	rport uint16
	lport uint16
}

// Batch is one flush of outbound segments, in transmission order. Pkts[i]
// is a frame buffer borrowed from the endpoint: its first headroom bytes
// (NewEndpoint) are left for the headers of the layers below, the rest is
// the segment for Dst[i]. The output callback may write the headroom and
// reorder Pkts, and must keep no reference to any of it once it returns —
// the buffers go straight back into the endpoint's pool.
type Batch struct {
	Dst  []ipv4.Addr
	Pkts [][]byte
}

// Endpoint is one host's TCP layer. Segments leave through the output
// callback (toward the IP layer), a whole flush at a time, and enter
// through Input. Tick drives timers; the owning stack calls it once
// NextDeadline has passed.
type Endpoint struct {
	ip       ipv4.Addr
	mss      int
	headroom int
	output   func(Batch)
	now      func() time.Time

	mu        sync.Mutex
	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	eph       uint16
	isn       uint32
	stats     Stats
	// pending collects the segments emitted under the lock; spare is the
	// previous flush's (emptied) batch, so the two alternate instead of
	// being regrown; flushing is set while a goroutine is transmitting
	// (flush); free is the frame-buffer pool.
	pending, spare Batch
	flushing       bool
	free           [][]byte
}

// freeMax bounds the frame-buffer pool at about two full send windows of
// segments; a flush that returns more leaves the surplus to the collector.
const freeMax = 2 * sndBufMax / defaultMSS

// NewEndpoint creates a TCP endpoint for ip. mtu bounds the MSS, headroom
// is what the output callback needs in front of every segment for its own
// headers; clock may be nil (wall clock).
func NewEndpoint(ip ipv4.Addr, mtu, headroom int, output func(Batch), clock func() time.Time) *Endpoint {
	if clock == nil {
		clock = time.Now
	}
	mss := mtu - ipv4.HeaderLen - headerLen
	if mss > defaultMSS {
		mss = defaultMSS
	}
	return &Endpoint{
		ip:        ip,
		mss:       mss,
		headroom:  headroom,
		output:    output,
		now:       clock,
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]*Listener),
		eph:       32768 + uint16(rand.Intn(16384)),
		isn:       rand.Uint32(),
	}
}

// Stats returns a snapshot of the endpoint counters.
func (e *Endpoint) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// emit encodes one segment to dst — h, then n bytes of q from offset off —
// straight into a pooled frame buffer and queues it for transmission
// after the lock is released. This copy is the segment's only one inside
// the stack.
func (e *Endpoint) emit(dst ipv4.Addr, h Header, q *queue, off, n int) {
	e.stats.SegsOut++
	var buf []byte
	if last := len(e.free) - 1; last >= 0 {
		buf, e.free = e.free[last], e.free[:last]
	} else {
		buf = make([]byte, e.headroom+headerLen+4+e.mss)
	}
	seg := buf[e.headroom:cap(buf)]
	hl := putHeader(seg, h)
	seg = seg[:hl+n]
	if n > 0 {
		q.peek(seg[hl:], off)
	}
	putChecksum(seg, e.ip, dst)
	e.pending.Dst = append(e.pending.Dst, dst)
	e.pending.Pkts = append(e.pending.Pkts, buf[:e.headroom+len(seg)])
}

// flush transmits what is pending; call it WITHOUT the lock held, after
// the critical section that emitted. One goroutine transmits at a time:
// whoever finds a flush under way leaves its segments for that flusher,
// which keeps going until nothing is pending — so segments reach the wire
// in the order they were emitted whichever goroutine emitted them, and
// concurrent flushes merge into batches instead of racing each other to
// the transport. Buffers go back to the pool as soon as the output
// callback returns.
func (e *Endpoint) flush() {
	e.mu.Lock()
	if e.flushing {
		e.mu.Unlock()
		return
	}
	e.flushing = true
	for len(e.pending.Pkts) > 0 {
		b := e.pending
		e.pending, e.spare = e.spare, Batch{}
		e.mu.Unlock()
		e.output(b)
		e.mu.Lock()
		for _, p := range b.Pkts {
			if len(e.free) < freeMax {
				e.free = append(e.free, p)
			}
		}
		e.spare = Batch{Dst: b.Dst[:0], Pkts: b.Pkts[:0]}
	}
	e.flushing = false
	e.mu.Unlock()
}

// Input processes one TCP segment received from src.
func (e *Endpoint) Input(src ipv4.Addr, seg []byte) {
	e.mu.Lock()
	e.inputLocked(src, seg)
	e.mu.Unlock()
	e.flush()
}

func (e *Endpoint) inputLocked(src ipv4.Addr, seg []byte) {
	h, payload, err := Parse(src, e.ip, seg)
	if err != nil {
		e.stats.ChecksumDrops++
		return
	}
	e.stats.SegsIn++
	if h.Flags&FlagRST != 0 {
		e.stats.RSTsIn++
	}

	key := connKey{rip: src, rport: h.SrcPort, lport: h.DstPort}
	if c, ok := e.conns[key]; ok {
		c.segmentLocked(h, payload)
		return
	}
	if l, ok := e.listeners[h.DstPort]; ok && h.Flags&FlagSYN != 0 && h.Flags&FlagACK == 0 {
		l.synLocked(src, h)
		return
	}
	// No home for this segment: RST (unless it is itself a RST).
	if h.Flags&FlagRST == 0 {
		e.sendRSTLocked(src, h, len(payload))
	}
}

func (e *Endpoint) sendRSTLocked(dst ipv4.Addr, h Header, payloadLen int) {
	e.stats.RSTsSent++
	ackAdj := uint32(payloadLen)
	if h.Flags&FlagSYN != 0 {
		ackAdj++
	}
	if h.Flags&FlagFIN != 0 {
		ackAdj++
	}
	rst := Header{
		SrcPort: h.DstPort, DstPort: h.SrcPort,
		Flags: FlagRST | FlagACK,
		Seq:   h.Ack, Ack: h.Seq + ackAdj,
	}
	e.emit(dst, rst, nil, 0, 0)
}

// NextDeadline returns the earliest instant at which Tick has work: the
// minimum over live connections of the retransmission, zero-window-probe
// and TIME-WAIT timers, mirroring which of them tickLocked honours in
// each state. Zero means no timer is armed; the owning stack sleeps
// until then (or its next frame) instead of ticking on a fixed period.
func (e *Endpoint) NextDeadline() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	var next time.Time
	earlier := func(t time.Time) {
		if !t.IsZero() && (next.IsZero() || t.Before(next)) {
			next = t
		}
	}
	for _, c := range e.conns {
		switch c.state {
		case StateClosed:
		case StateTimeWait:
			earlier(c.timeWaitAt)
		default:
			earlier(c.rtxDeadline)
			earlier(c.probeAt)
		}
	}
	return next
}

// Tick advances timers (retransmission, zero-window probes, TIME-WAIT
// expiry). The stack calls it once NextDeadline has passed.
func (e *Endpoint) Tick() {
	e.mu.Lock()
	now := e.now()
	for _, c := range e.conns {
		c.tickLocked(now)
	}
	e.mu.Unlock()
	e.flush()
}

// AbortAll tears down every connection and listener with err: the
// transport under the stack died (fail-dead or declared host stall), so
// no segment can ever be delivered or acknowledged again. Blocked
// readers and writers wake with err, blocked Accepts return, and
// in-flight send buffers are abandoned — TCP cannot out-retransmit a
// dead NIC. No RSTs are emitted because there is no transport left to
// carry them; the queued segment backlog is discarded for the same
// reason.
func (e *Endpoint) AbortAll(err error) {
	if err == nil {
		err = ErrClosed
	}
	e.mu.Lock()
	conns := make([]*Conn, 0, len(e.conns))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	for _, c := range conns {
		c.teardownLocked(err)
	}
	for port, l := range e.listeners {
		l.closed = true
		delete(e.listeners, port)
		close(l.backlog)
		for c := range drainBacklog(l.backlog) {
			c.teardownLocked(err)
		}
	}
	e.pending = Batch{}
	e.mu.Unlock()
}

func (e *Endpoint) nextISNLocked() uint32 {
	e.isn += 0x3779 + uint32(rand.Intn(1<<16))
	return e.isn
}

func (e *Endpoint) allocPortLocked() (uint16, error) {
	for i := 0; i < 1<<15; i++ {
		p := e.eph
		e.eph++
		if e.eph < 32768 {
			e.eph = 32768
		}
		if _, used := e.listeners[p]; used {
			continue
		}
		inUse := false
		for k := range e.conns {
			if k.lport == p {
				inUse = true
				break
			}
		}
		if !inUse {
			return p, nil
		}
	}
	return 0, errors.New("tcp: ephemeral ports exhausted")
}

// Dial opens a connection to dst:port, blocking until established,
// refused, reset, or timeout (timeout<=0 means 5s).
func (e *Endpoint) Dial(dst ipv4.Addr, port uint16, timeout time.Duration) (*Conn, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	e.mu.Lock()
	lport, err := e.allocPortLocked()
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	c := newConn(e, connKey{rip: dst, rport: port, lport: lport})
	c.state = StateSynSent
	c.iss = e.nextISNLocked()
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	e.conns[c.key] = c
	c.sendSynLocked()
	ch := c.notify
	e.mu.Unlock()
	e.flush()

	deadline := time.After(timeout)
	for {
		select {
		case <-ch:
		case <-deadline:
			e.mu.Lock()
			established := c.state == StateEstablished
			if !established {
				c.teardownLocked(ErrTimeout)
			}
			e.mu.Unlock()
			e.flush()
			if established {
				return c, nil
			}
			return nil, ErrTimeout
		}
		e.mu.Lock()
		st, cerr := c.state, c.connErr
		ch = c.notify
		e.mu.Unlock()
		if st == StateEstablished {
			return c, nil
		}
		if cerr != nil {
			return nil, cerr
		}
	}
}

// Listener accepts inbound connections on a port.
type Listener struct {
	e       *Endpoint
	port    uint16
	backlog chan *Conn
	closed  bool
}

// Listen starts accepting connections on port.
func (e *Endpoint) Listen(port uint16, backlog int) (*Listener, error) {
	if backlog <= 0 {
		backlog = 16
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, used := e.listeners[port]; used {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	l := &Listener{e: e, port: port, backlog: make(chan *Conn, backlog)}
	e.listeners[port] = l
	return l, nil
}

// synLocked handles an inbound SYN for this listener.
func (l *Listener) synLocked(src ipv4.Addr, h Header) {
	if l.closed || len(l.backlog) == cap(l.backlog) {
		return // silently drop; client retransmits
	}
	e := l.e
	key := connKey{rip: src, rport: h.SrcPort, lport: l.port}
	c := newConn(e, key)
	c.state = StateSynRcvd
	c.listener = l
	c.iss = e.nextISNLocked()
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	c.irs = h.Seq
	c.rcvNxt = h.Seq + 1
	if h.MSS != 0 && int(h.MSS) < c.mss {
		c.mss = int(h.MSS)
	}
	c.sndWnd = uint32(h.Window)
	e.conns[key] = c
	c.sendSynLocked() // SYN-ACK (state-dependent)
}

// Accept returns the next established connection, blocking until one
// arrives or the listener closes.
func (l *Listener) Accept() (*Conn, error) {
	c, ok := <-l.backlog
	if !ok {
		return nil, ErrListenerClosed
	}
	return c, nil
}

// AcceptTimeout is Accept with a deadline.
func (l *Listener) AcceptTimeout(d time.Duration) (*Conn, error) {
	select {
	case c, ok := <-l.backlog:
		if !ok {
			return nil, ErrListenerClosed
		}
		return c, nil
	case <-time.After(d):
		return nil, ErrTimeout
	}
}

// Close stops accepting. Established-but-unaccepted connections are
// aborted.
func (l *Listener) Close() {
	e := l.e
	e.mu.Lock()
	if l.closed {
		e.mu.Unlock()
		return
	}
	l.closed = true
	delete(e.listeners, l.port)
	close(l.backlog)
	for c := range drainBacklog(l.backlog) {
		c.abortLocked()
	}
	e.mu.Unlock()
	e.flush()
}

func drainBacklog(ch chan *Conn) map[*Conn]bool {
	out := map[*Conn]bool{}
	for c := range ch {
		out[c] = true
	}
	return out
}
