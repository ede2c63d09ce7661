package tcp

import (
	"io"
	"time"
)

// State is a TCP connection state (RFC 793 names).
type State int

// Connection states.
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{
	"Closed", "SynSent", "SynRcvd", "Established", "FinWait1",
	"FinWait2", "CloseWait", "Closing", "LastAck", "TimeWait",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "Unknown"
}

// Conn is one TCP connection. Read blocks until data, EOF or its
// deadline; Write blocks while the send buffer is full. All protocol
// processing happens under the owning endpoint's lock.
type Conn struct {
	ep       *Endpoint
	key      connKey
	state    State
	listener *Listener

	// Send state. sndBuf holds all unacknowledged and unsent payload
	// starting at sequence sndUna.
	iss       uint32
	sndUna    uint32
	sndNxt    uint32
	sndWnd    uint32
	sndBuf    queue
	sndClosed bool // FIN queued by Close
	finSent   bool
	finAcked  bool
	mss       int

	// Receive state.
	irs        uint32
	rcvNxt     uint32
	rcvBuf     queue
	ooo        map[uint32][]byte
	finRcvd    bool
	lastAdvWnd uint32

	// Timers.
	// Congestion control (Reno-flavoured: slow start + AIMD).
	cwnd     uint32
	ssthresh uint32

	rto         time.Duration
	rtxDeadline time.Time
	retries     int
	dupAcks     int
	probeAt     time.Time
	timeWaitAt  time.Time

	connErr     error
	closeCalled bool
	notify      chan struct{}

	readDeadline time.Time
}

func newConn(e *Endpoint, key connKey) *Conn {
	return &Conn{
		ep:       e,
		key:      key,
		mss:      e.mss,
		cwnd:     10 * uint32(e.mss), // RFC 6928 initial window
		ssthresh: sndBufMax,
		rto:      rtoInitial,
		ooo:      make(map[uint32][]byte),
		notify:   make(chan struct{}),
	}
}

// SetReadDeadline bounds future Reads (zero = no deadline).
func (c *Conn) SetReadDeadline(t time.Time) {
	c.ep.mu.Lock()
	defer c.ep.mu.Unlock()
	c.readDeadline = t
}

func (c *Conn) notifyAllLocked() {
	close(c.notify)
	c.notify = make(chan struct{})
}

func (c *Conn) advWndLocked() uint16 {
	w := rcvBufMax - c.rcvBuf.len()
	if w < 0 {
		w = 0
	}
	if w > 0xFFFF {
		w = 0xFFFF
	}
	c.lastAdvWnd = uint32(w)
	return uint16(w)
}

// sendSegLocked emits one segment with the connection's current ack and
// window, carrying n bytes of the send buffer from offset off.
func (c *Conn) sendSegLocked(flags uint8, seq uint32, off, n int, mss uint16) {
	h := Header{
		SrcPort: c.key.lport, DstPort: c.key.rport,
		Seq: seq, Flags: flags, Window: c.advWndLocked(), MSS: mss,
	}
	if flags&FlagACK != 0 {
		h.Ack = c.rcvNxt
	}
	c.ep.emit(c.key.rip, h, &c.sndBuf, off, n)
}

func (c *Conn) sendSynLocked() {
	flags := uint8(FlagSYN)
	if c.state == StateSynRcvd {
		flags |= FlagACK
	}
	c.sendSegLocked(flags, c.iss, 0, 0, uint16(c.ep.mss))
	c.armRtxLocked()
}

func (c *Conn) sendAckLocked() {
	c.sendSegLocked(FlagACK, c.sndNxt, 0, 0, 0)
}

func (c *Conn) armRtxLocked() {
	c.rtxDeadline = c.ep.now().Add(c.rto)
}

// teardownLocked kills the connection with err and wakes all waiters.
func (c *Conn) teardownLocked(err error) {
	if c.connErr == nil {
		c.connErr = err
	}
	c.state = StateClosed
	delete(c.ep.conns, c.key)
	c.notifyAllLocked()
}

// abortLocked sends RST and tears down.
func (c *Conn) abortLocked() {
	if c.state != StateClosed && c.state != StateTimeWait {
		c.sendSegLocked(FlagRST|FlagACK, c.sndNxt, 0, 0, 0)
	}
	c.teardownLocked(ErrClosed)
}

// Abort resets the connection immediately (RST).
func (c *Conn) Abort() {
	c.ep.mu.Lock()
	c.abortLocked()
	c.ep.mu.Unlock()
	c.ep.flush()
}

// --- segment processing ---

// segmentLocked is the RFC 793 event "SEGMENT ARRIVES".
func (c *Conn) segmentLocked(h Header, payload []byte) {
	switch c.state {
	case StateSynSent:
		c.synSentLocked(h)
		return
	case StateClosed:
		return
	case StateTimeWait:
		// Retransmitted FIN: re-ack and restart the 2MSL wait.
		if h.Flags&FlagFIN != 0 {
			c.sendAckLocked()
			c.timeWaitAt = c.ep.now().Add(timeWaitDur)
		}
		return
	}

	// RST processing.
	if h.Flags&FlagRST != 0 {
		if seqGEQ(h.Seq, c.rcvNxt) && seqLT(h.Seq, c.rcvNxt+seqMaxWnd) {
			c.teardownLocked(ErrReset)
		}
		return
	}

	// SYN-RCVD: waiting for the handshake-completing ACK.
	if c.state == StateSynRcvd {
		if h.Flags&FlagSYN != 0 { // retransmitted SYN: re-send SYN-ACK
			c.sendSynLocked()
			return
		}
		if h.Flags&FlagACK == 0 || h.Ack != c.iss+1 {
			c.ep.sendRSTLocked(c.key.rip, h, len(payload))
			return
		}
		c.state = StateEstablished
		c.sndUna = h.Ack
		c.sndWnd = uint32(h.Window)
		c.rtxDeadline = time.Time{}
		c.retries = 0
		if c.listener != nil && !c.listener.closed {
			select {
			case c.listener.backlog <- c:
			default:
				c.abortLocked()
				return
			}
		}
		c.notifyAllLocked()
		// Fall through: the ACK may carry data.
	}

	if h.Flags&FlagACK != 0 {
		c.processAckLocked(h)
		if c.state == StateClosed {
			return
		}
	}
	c.processDataLocked(h, payload)
	c.trySendLocked()
}

const seqMaxWnd = 1 << 20 // acceptance window for RST sequence checks

func (c *Conn) synSentLocked(h Header) {
	if h.Flags&FlagRST != 0 {
		if h.Flags&FlagACK != 0 && h.Ack == c.iss+1 {
			c.teardownLocked(ErrRefused)
		}
		return
	}
	if h.Flags&(FlagSYN|FlagACK) != FlagSYN|FlagACK || h.Ack != c.iss+1 {
		return // simultaneous open unsupported; ignore
	}
	c.state = StateEstablished
	c.irs = h.Seq
	c.rcvNxt = h.Seq + 1
	c.sndUna = h.Ack
	c.sndWnd = uint32(h.Window)
	if h.MSS != 0 && int(h.MSS) < c.mss {
		c.mss = int(h.MSS)
	}
	c.rtxDeadline = time.Time{}
	c.retries = 0
	c.rto = rtoInitial
	c.sendAckLocked()
	c.notifyAllLocked()
}

func (c *Conn) processAckLocked(h Header) {
	ack := h.Ack
	c.sndWnd = uint32(h.Window)

	if seqGT(ack, c.sndNxt) {
		// Acking data never sent: protocol violation; ack back.
		c.sendAckLocked()
		return
	}
	if seqLEQ(ack, c.sndUna) {
		// Duplicate ACK.
		if ack == c.sndUna && c.bytesInFlightLocked() > 0 {
			c.dupAcks++
			if c.dupAcks == 3 {
				c.ep.stats.FastRetransmits++
				// Fast recovery: halve the window, stay in congestion
				// avoidance.
				c.ssthresh = maxU32(c.bytesInFlightLocked()/2, 2*uint32(c.mss))
				c.cwnd = c.ssthresh
				c.retransmitLocked()
				c.dupAcks = 0
			}
		}
		return
	}

	// New data acknowledged.
	finSeq := c.finSeqLocked() // before sndUna moves
	advance := ack - c.sndUna
	trim := int(advance)
	if trim > c.sndBuf.len() {
		trim = c.sndBuf.len() // SYN/FIN sequence space
	}
	c.sndBuf.discard(trim)
	c.sndUna = ack
	c.dupAcks = 0
	c.retries = 0
	c.rto = rtoInitial
	// Congestion window growth: exponential in slow start, additive in
	// congestion avoidance.
	acked := uint32(advance)
	if c.cwnd < c.ssthresh {
		c.cwnd += minU32(acked, uint32(c.mss))
	} else if c.cwnd > 0 {
		c.cwnd += maxU32(uint32(c.mss)*uint32(c.mss)/c.cwnd, 1)
	}
	if c.cwnd > sndBufMax {
		c.cwnd = sndBufMax
	}
	if c.bytesInFlightLocked() > 0 {
		c.armRtxLocked()
	} else {
		c.rtxDeadline = time.Time{}
	}
	if c.finSent && seqGT(ack, finSeq) {
		c.finAcked = true
	}
	c.notifyAllLocked() // writers may proceed

	// FIN-acked state transitions.
	if c.finAcked {
		switch c.state {
		case StateFinWait1:
			c.state = StateFinWait2
		case StateClosing:
			c.enterTimeWaitLocked()
		case StateLastAck:
			c.teardownLocked(nil)
		}
	}
}

// finSeqLocked returns the sequence number our FIN occupies.
func (c *Conn) finSeqLocked() uint32 {
	return c.sndUna + uint32(c.sndBuf.len())
}

func (c *Conn) bytesInFlightLocked() uint32 { return c.sndNxt - c.sndUna }

func (c *Conn) processDataLocked(h Header, payload []byte) {
	seg := payload
	seq := h.Seq
	hasFin := h.Flags&FlagFIN != 0

	if len(seg) == 0 && !hasFin {
		return
	}

	// Trim anything already received.
	if seqLT(seq, c.rcvNxt) {
		skip := c.rcvNxt - seq
		if uint32(len(seg)) <= skip {
			if !(hasFin && seq+uint32(len(seg)) == c.rcvNxt) {
				// Entirely old: dup ACK so the peer resynchronizes.
				c.sendAckLocked()
				return
			}
			seg = nil
		} else {
			seg = seg[skip:]
		}
		seq = c.rcvNxt
	}

	if seqGT(seq, c.rcvNxt) {
		// Out of order: stash for later (bounded), ack what we have.
		c.ep.stats.SegmentsReordered++
		if len(c.ooo) < maxOOOSegs && len(seg) > 0 {
			cp := make([]byte, len(seg))
			copy(cp, seg)
			c.ooo[seq] = cp
		}
		c.sendAckLocked()
		return
	}

	// In order: deliver.
	if len(seg) > 0 {
		n := c.rcvBuf.write(seg, rcvBufMax)
		if n < len(seg) {
			hasFin = false // beyond advertised window: excess dropped
		}
		c.rcvNxt += uint32(n)
		c.drainOOOLocked()
	}

	if hasFin && !c.finRcvd && seqLEQ(h.Seq+uint32(len(payload)), c.rcvNxt) {
		c.finRcvd = true
		c.rcvNxt++
		switch c.state {
		case StateEstablished:
			c.state = StateCloseWait
		case StateFinWait1:
			if c.finAcked {
				c.enterTimeWaitLocked()
			} else {
				c.state = StateClosing
			}
		case StateFinWait2:
			c.enterTimeWaitLocked()
		}
	}
	c.sendAckLocked()
	c.notifyAllLocked()
}

func (c *Conn) drainOOOLocked() {
	for {
		seg, ok := c.ooo[c.rcvNxt]
		if !ok {
			// Also handle segments that start before rcvNxt now.
			found := false
			for s, data := range c.ooo {
				if seqLEQ(s, c.rcvNxt) && seqGT(s+uint32(len(data)), c.rcvNxt) {
					delete(c.ooo, s)
					c.ooo[c.rcvNxt] = data[c.rcvNxt-s:]
					found = true
					break
				}
				if seqLEQ(s+uint32(len(data)), c.rcvNxt) {
					delete(c.ooo, s)
					found = true
					break
				}
			}
			if !found {
				return
			}
			continue
		}
		delete(c.ooo, c.rcvNxt)
		c.rcvNxt += uint32(c.rcvBuf.write(seg, rcvBufMax))
	}
}

func (c *Conn) enterTimeWaitLocked() {
	c.state = StateTimeWait
	c.timeWaitAt = c.ep.now().Add(timeWaitDur)
	c.notifyAllLocked()
}

// trySendLocked transmits as much pending data as windows allow, then a
// FIN if one is queued and the buffer drained.
func (c *Conn) trySendLocked() {
	if c.state != StateEstablished && c.state != StateCloseWait &&
		c.state != StateFinWait1 && c.state != StateClosing && c.state != StateLastAck {
		return
	}
	// Effective window: the peer's advertisement capped by our
	// congestion window.
	wnd := c.sndWnd
	if wnd > c.cwnd {
		wnd = c.cwnd
	}
	if wnd > sndBufMax {
		wnd = sndBufMax
	}
	for {
		offset := int(c.sndNxt - c.sndUna)
		if c.finSent {
			break
		}
		avail := c.sndBuf.len() - offset
		if avail <= 0 {
			break
		}
		inFlight := c.bytesInFlightLocked()
		if inFlight >= wnd {
			if wnd == 0 && c.probeAt.IsZero() {
				c.probeAt = c.ep.now().Add(probeEvery)
			}
			break
		}
		n := avail
		if n > c.mss {
			n = c.mss
		}
		if space := int(wnd - inFlight); n > space {
			n = space
		}
		flags := uint8(FlagACK)
		if offset+n == c.sndBuf.len() {
			flags |= FlagPSH
		}
		c.sendSegLocked(flags, c.sndNxt, offset, n, 0)
		c.sndNxt += uint32(n)
		c.armRtxLocked()
	}

	// Queue the FIN once all payload is out.
	if c.sndClosed && !c.finSent && int(c.sndNxt-c.sndUna) == c.sndBuf.len() {
		c.sendSegLocked(FlagFIN|FlagACK, c.sndNxt, 0, 0, 0)
		c.finSent = true
		c.sndNxt++
		c.armRtxLocked()
		switch c.state {
		case StateEstablished:
			c.state = StateFinWait1
		case StateCloseWait:
			c.state = StateLastAck
		}
	}
}

// retransmitLocked resends the earliest unacknowledged segment.
func (c *Conn) retransmitLocked() {
	c.ep.stats.Retransmits++
	switch c.state {
	case StateSynSent, StateSynRcvd:
		c.sendSynLocked()
		return
	}
	if n := c.sndBuf.len(); n > 0 {
		if n > c.mss {
			n = c.mss
		}
		c.sendSegLocked(FlagACK|FlagPSH, c.sndUna, 0, n, 0)
		c.armRtxLocked()
		return
	}
	if c.finSent && !c.finAcked {
		c.sendSegLocked(FlagFIN|FlagACK, c.finSeqLocked(), 0, 0, 0)
		c.armRtxLocked()
	}
}

// tickLocked drives this connection's timers.
func (c *Conn) tickLocked(now time.Time) {
	switch c.state {
	case StateClosed:
		return
	case StateTimeWait:
		if now.After(c.timeWaitAt) {
			c.teardownLocked(nil)
		}
		return
	}

	if !c.rtxDeadline.IsZero() && now.After(c.rtxDeadline) {
		needsRtx := c.bytesInFlightLocked() > 0 || c.state == StateSynSent || c.state == StateSynRcvd
		if needsRtx {
			c.retries++
			if c.retries > maxRetries {
				c.teardownLocked(ErrGaveUp)
				return
			}
			c.rto *= 2
			if c.rto > rtoMax {
				c.rto = rtoMax
			}
			// Timeout: multiplicative decrease back to one segment.
			c.ssthresh = maxU32(c.bytesInFlightLocked()/2, 2*uint32(c.mss))
			c.cwnd = uint32(c.mss)
			c.retransmitLocked()
		} else {
			c.rtxDeadline = time.Time{}
		}
	}

	// Zero-window probe.
	if !c.probeAt.IsZero() && now.After(c.probeAt) {
		offset := int(c.sndNxt - c.sndUna)
		if c.sndWnd == 0 && offset < c.sndBuf.len() {
			c.ep.stats.ZeroWindowProbes++
			c.sendSegLocked(FlagACK|FlagPSH, c.sndNxt, offset, 1, 0)
			c.probeAt = now.Add(probeEvery)
		} else {
			c.probeAt = time.Time{}
			c.trySendLocked()
		}
	}
}

// --- blocking I/O ---

// Read copies received data into p, blocking until data, EOF, deadline,
// or error.
func (c *Conn) Read(p []byte) (int, error) {
	e := c.ep
	e.mu.Lock()
	for {
		if c.rcvBuf.len() > 0 {
			n := c.rcvBuf.read(p)
			// Window update if we had closed the window.
			if c.lastAdvWnd == 0 && c.state != StateClosed {
				c.sendAckLocked()
			}
			e.mu.Unlock()
			e.flush()
			return n, nil
		}
		if c.connErr != nil {
			err := c.connErr
			e.mu.Unlock()
			return 0, err
		}
		if c.finRcvd || c.state == StateClosed || c.state == StateTimeWait {
			e.mu.Unlock()
			return 0, io.EOF
		}
		if c.closeCalled {
			e.mu.Unlock()
			return 0, ErrClosed
		}
		ch := c.notify
		deadline := c.readDeadline
		e.mu.Unlock()

		if err := waitNotify(ch, deadline); err != nil {
			return 0, err
		}
		e.mu.Lock()
	}
}

// Write queues p for transmission, blocking while the send buffer is
// full. It returns after all of p is queued (not necessarily acked).
func (c *Conn) Write(p []byte) (int, error) {
	e := c.ep
	total := 0
	e.mu.Lock()
	for len(p) > 0 {
		if c.connErr != nil {
			err := c.connErr
			e.mu.Unlock()
			return total, err
		}
		if c.closeCalled || c.sndClosed || (c.state != StateEstablished && c.state != StateCloseWait) {
			e.mu.Unlock()
			return total, ErrClosed
		}
		if n := c.sndBuf.write(p, sndBufMax); n > 0 {
			p = p[n:]
			total += n
			c.trySendLocked()
			continue
		}
		ch := c.notify
		e.mu.Unlock()
		e.flush()
		<-ch
		e.mu.Lock()
	}
	e.mu.Unlock()
	e.flush()
	return total, nil
}

// CongestionWindow returns the current congestion window in bytes.
func (c *Conn) CongestionWindow() uint32 {
	c.ep.mu.Lock()
	defer c.ep.mu.Unlock()
	return c.cwnd
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func waitNotify(ch <-chan struct{}, deadline time.Time) error {
	if deadline.IsZero() {
		<-ch
		return nil
	}
	d := time.Until(deadline)
	if d <= 0 {
		return ErrTimeout
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return nil
	case <-t.C:
		return ErrTimeout
	}
}

// CloseWrite half-closes the connection: FIN after pending data, reads
// still allowed (shutdown(SHUT_WR) semantics).
func (c *Conn) CloseWrite() error {
	e := c.ep
	e.mu.Lock()
	if c.state == StateEstablished || c.state == StateCloseWait || c.state == StateSynRcvd {
		c.sndClosed = true
		c.trySendLocked()
	}
	c.notifyAllLocked()
	e.mu.Unlock()
	e.flush()
	return nil
}

// Close sends FIN after pending data and marks the connection closed for
// further Reads and Writes. It does not wait for the peer.
func (c *Conn) Close() error {
	e := c.ep
	e.mu.Lock()
	if c.closeCalled {
		e.mu.Unlock()
		return nil
	}
	c.closeCalled = true
	if c.state == StateEstablished || c.state == StateCloseWait || c.state == StateSynRcvd {
		c.sndClosed = true
		c.trySendLocked()
	} else if c.state == StateSynSent {
		c.teardownLocked(ErrClosed)
	}
	c.notifyAllLocked()
	e.mu.Unlock()
	e.flush()
	return nil
}
