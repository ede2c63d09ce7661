package tcp

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"confio/internal/ipv4"
)

var (
	ipA = ipv4.Addr{10, 0, 0, 1}
	ipB = ipv4.Addr{10, 0, 0, 2}
)

// testHeadroom is what the tests' output callbacks ask in front of every
// segment (what netstack asks: an Ethernet and an IPv4 header).
const testHeadroom = 34

// eachSeg adapts a per-segment sink to the endpoint's batch callback. The
// sink sees the segment in the endpoint's pooled buffer and must copy what
// it keeps.
func eachSeg(sink func(dst ipv4.Addr, seg []byte)) func(Batch) {
	return func(b Batch) {
		for i, p := range b.Pkts {
			sink(b.Dst[i], p[testHeadroom:])
		}
	}
}

// testNet wires two endpoints through an asynchronous pipe with optional
// per-direction segment filters (drop / duplicate / reorder).
type testNet struct {
	a, b *Endpoint

	mu      sync.Mutex
	qAB     [][]byte
	qBA     [][]byte
	filtAB  func(seg []byte) [][]byte // nil = pass through
	filtBA  func(seg []byte) [][]byte
	stopped chan struct{}
	wg      sync.WaitGroup
}

func newTestNet(t *testing.T) *testNet {
	t.Helper()
	n := &testNet{stopped: make(chan struct{})}
	n.a = NewEndpoint(ipA, 1500, testHeadroom, eachSeg(func(dst ipv4.Addr, seg []byte) {
		n.enqueue(&n.qAB, n.filterAB(seg))
	}), nil)
	n.b = NewEndpoint(ipB, 1500, testHeadroom, eachSeg(func(dst ipv4.Addr, seg []byte) {
		n.enqueue(&n.qBA, n.filterBA(seg))
	}), nil)
	n.wg.Add(1)
	go n.pump()
	t.Cleanup(n.stop)
	return n
}

func (n *testNet) filterAB(seg []byte) [][]byte {
	n.mu.Lock()
	f := n.filtAB
	n.mu.Unlock()
	cp := append([]byte{}, seg...)
	if f == nil {
		return [][]byte{cp}
	}
	return f(cp)
}

func (n *testNet) filterBA(seg []byte) [][]byte {
	n.mu.Lock()
	f := n.filtBA
	n.mu.Unlock()
	cp := append([]byte{}, seg...)
	if f == nil {
		return [][]byte{cp}
	}
	return f(cp)
}

func (n *testNet) enqueue(q *[][]byte, segs [][]byte) {
	n.mu.Lock()
	*q = append(*q, segs...)
	n.mu.Unlock()
}

func (n *testNet) pump() {
	defer n.wg.Done()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-n.stopped:
			return
		case <-tick.C:
		}
		for {
			n.mu.Lock()
			var seg []byte
			var to *Endpoint
			var from ipv4.Addr
			if len(n.qAB) > 0 {
				seg, n.qAB = n.qAB[0], n.qAB[1:]
				to, from = n.b, ipA
			} else if len(n.qBA) > 0 {
				seg, n.qBA = n.qBA[0], n.qBA[1:]
				to, from = n.a, ipB
			}
			n.mu.Unlock()
			if seg == nil {
				break
			}
			to.Input(from, seg)
		}
		n.a.Tick()
		n.b.Tick()
	}
}

func (n *testNet) stop() {
	select {
	case <-n.stopped:
	default:
		close(n.stopped)
	}
	n.wg.Wait()
}

// connect establishes a client(A)->server(B) pair.
func (n *testNet) connect(t *testing.T, port uint16) (client, server *Conn) {
	t.Helper()
	l, err := n.b.Listen(port, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	c, err := n.a.Dial(ipB, port, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.AcceptTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c, s
}

// segment encodes a segment the way emit does: header, payload, then the
// checksum over both.
func segment(src, dst ipv4.Addr, h Header, payload []byte) []byte {
	b := make([]byte, headerLen+4+len(payload))
	n := putHeader(b, h)
	b = append(b[:n], payload...)
	putChecksum(b, src, dst)
	return b
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{SrcPort: 80, DstPort: 45000, Seq: 0xDEADBEEF, Ack: 0xCAFEBABE,
		Flags: FlagSYN | FlagACK, Window: 4096, MSS: 1460}
	payload := []byte("segment data")
	buf := segment(ipA, ipB, h, payload)
	got, pl, err := Parse(ipA, ipB, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h || !bytes.Equal(pl, payload) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestHeaderChecksumDetectsCorruption(t *testing.T) {
	buf := segment(ipA, ipB, Header{SrcPort: 1, DstPort: 2, Flags: FlagACK}, []byte("xy"))
	buf[len(buf)-1] ^= 1
	if _, _, err := Parse(ipA, ipB, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corruption: %v", err)
	}
	// Wrong pseudo header (a different address, not a symmetric swap —
	// the one's-complement sum is commutative in src/dst).
	good := segment(ipA, ipB, Header{SrcPort: 1, DstPort: 2, Flags: FlagACK}, nil)
	if _, _, err := Parse(ipA, ipv4.Addr{9, 9, 9, 9}, good); !errors.Is(err, ErrChecksum) {
		t.Fatalf("pseudo header: %v", err)
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqLT(0xFFFFFFF0, 0x10) {
		t.Fatal("wraparound LT")
	}
	if !seqGT(0x10, 0xFFFFFFF0) {
		t.Fatal("wraparound GT")
	}
	if !seqLEQ(5, 5) || !seqGEQ(5, 5) {
		t.Fatal("equality")
	}
}

func TestHandshakeAndStates(t *testing.T) {
	n := newTestNet(t)
	c, s := n.connect(t, 8080)
	if stateOf(c) != StateEstablished || stateOf(s) != StateEstablished {
		t.Fatalf("states: %v / %v", stateOf(c), stateOf(s))
	}
	if c.key.rip != ipB || c.key.rport != 8080 {
		t.Fatal("client addressing wrong")
	}
	if s.key.rip != ipA || s.key.rport != c.key.lport {
		t.Fatal("server addressing wrong")
	}
}

func TestDataTransfer(t *testing.T) {
	n := newTestNet(t)
	c, s := n.connect(t, 8080)

	msg := []byte("hello over the confidential stack")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(&connReader{s}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}

	// And the other direction.
	reply := []byte("reply")
	if _, err := s.Write(reply); err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, len(reply))
	if _, err := io.ReadFull(&connReader{c}, got2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, reply) {
		t.Fatalf("got %q", got2)
	}
}

// connReader adapts Conn to io.Reader for io.ReadFull.
type connReader struct{ c *Conn }

func (r *connReader) Read(p []byte) (int, error) { return r.c.Read(p) }

func TestLargeTransfer(t *testing.T) {
	n := newTestNet(t)
	c, s := n.connect(t, 8080)

	data := make([]byte, 1<<20) // 1 MiB: many windows, many segments
	for i := range data {
		data[i] = byte(i * 31)
	}
	go func() {
		c.Write(data)
		c.Close()
	}()
	got, err := io.ReadAll(&connReader{s})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("1 MiB transfer corrupted (%d bytes)", len(got))
	}
}

func TestCloseHandshake(t *testing.T) {
	n := newTestNet(t)
	c, s := n.connect(t, 8080)
	if _, err := c.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	nn, err := s.Read(buf)
	if err != nil || string(buf[:nn]) != "bye" {
		t.Fatalf("read: %q %v", buf[:nn], err)
	}
	if _, err := s.Read(buf); err != io.EOF {
		t.Fatalf("want EOF after FIN, got %v", err)
	}
	// Server can still send until it closes (half close).
	if _, err := s.Write([]byte("final")); err != nil {
		t.Fatal(err)
	}
	nn, err = c.Read(buf)
	if err != nil || string(buf[:nn]) != "final" {
		t.Fatalf("half-close read: %q %v", buf[:nn], err)
	}
	s.Close()
	waitState(t, c, StateTimeWait, StateClosed)
	waitGone(t, n.b, s)
}

func waitState(t *testing.T, c *Conn, want ...State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := stateOf(c)
		for _, w := range want {
			if st == w {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("conn stuck in %v, want %v", stateOf(c), want)
}

// stateOf and errOf read a connection's state and fatal error under its
// endpoint's lock.
func stateOf(c *Conn) State {
	c.ep.mu.Lock()
	defer c.ep.mu.Unlock()
	return c.state
}

func errOf(c *Conn) error {
	c.ep.mu.Lock()
	defer c.ep.mu.Unlock()
	return c.connErr
}

func waitGone(t *testing.T, e *Endpoint, c *Conn) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		e.mu.Lock()
		_, ok := e.conns[c.key]
		e.mu.Unlock()
		if !ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("connection never cleaned up")
}

func TestConnectionRefused(t *testing.T) {
	n := newTestNet(t)
	if _, err := n.a.Dial(ipB, 9999, 2*time.Second); !errors.Is(err, ErrRefused) {
		t.Fatalf("want ErrRefused, got %v", err)
	}
}

func TestDialTimeoutWhenPeerSilent(t *testing.T) {
	n := newTestNet(t)
	// Drop all SYNs toward B.
	n.mu.Lock()
	n.filtAB = func(seg []byte) [][]byte { return nil }
	n.mu.Unlock()
	start := time.Now()
	if _, err := n.a.Dial(ipB, 80, 300*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout too slow")
	}
}

func TestRetransmissionThroughLoss(t *testing.T) {
	n := newTestNet(t)
	c, s := n.connect(t, 8080)

	// Drop every 4th data segment A->B.
	var count int
	n.mu.Lock()
	n.filtAB = func(seg []byte) [][]byte {
		count++
		if count%4 == 0 {
			return nil
		}
		return [][]byte{seg}
	}
	n.mu.Unlock()

	data := make([]byte, 200<<10)
	for i := range data {
		data[i] = byte(i)
	}
	go func() {
		c.Write(data)
		c.Close()
	}()
	got, err := io.ReadAll(&connReader{s})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("lossy transfer corrupted")
	}
	if n.a.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions recorded despite loss")
	}
}

func TestReorderAndDuplication(t *testing.T) {
	n := newTestNet(t)
	c, s := n.connect(t, 8080)

	var held [][]byte
	var count int
	n.mu.Lock()
	n.filtAB = func(seg []byte) [][]byte {
		count++
		switch {
		case count%5 == 0: // hold back for reordering
			held = append(held, seg)
			return nil
		case count%7 == 0: // duplicate
			return [][]byte{seg, append([]byte{}, seg...)}
		case len(held) > 0:
			out := append([][]byte{seg}, held...)
			held = nil
			return out
		default:
			return [][]byte{seg}
		}
	}
	n.mu.Unlock()

	data := make([]byte, 100<<10)
	for i := range data {
		data[i] = byte(i * 13)
	}
	go func() {
		c.Write(data)
		c.Close()
	}()
	got, err := io.ReadAll(&connReader{s})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reordered/duplicated transfer corrupted")
	}
}

func TestCorruptedSegmentsDropped(t *testing.T) {
	n := newTestNet(t)
	c, s := n.connect(t, 8080)
	var count int
	n.mu.Lock()
	n.filtAB = func(seg []byte) [][]byte {
		count++
		if count%3 == 0 {
			seg[len(seg)/2] ^= 0xFF // bit corruption
		}
		return [][]byte{seg}
	}
	n.mu.Unlock()

	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	go func() {
		c.Write(data)
		c.Close()
	}()
	got, err := io.ReadAll(&connReader{s})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corruption leaked through checksum")
	}
	if n.b.Stats().ChecksumDrops == 0 {
		t.Fatal("no checksum drops recorded")
	}
}

func TestGiveUpAfterMaxRetries(t *testing.T) {
	n := newTestNet(t)
	c, s := n.connect(t, 8080)
	_ = s
	// Black-hole everything A->B after establishment.
	n.mu.Lock()
	n.filtAB = func(seg []byte) [][]byte { return nil }
	n.mu.Unlock()
	if _, err := c.Write([]byte("into the void")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if errors.Is(errOf(c), ErrGaveUp) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("sender never gave up: state %v err %v", stateOf(c), errOf(c))
}

func TestRSTTearsDownConnection(t *testing.T) {
	n := newTestNet(t)
	c, s := n.connect(t, 8080)
	s.Abort() // sends RST
	buf := make([]byte, 8)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Read(buf); errors.Is(err, ErrReset) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("client never saw RST: state %v err %v", stateOf(c), errOf(c))
}

func TestZeroWindowAndProbe(t *testing.T) {
	n := newTestNet(t)
	c, s := n.connect(t, 8080)

	// Fill the receiver completely (it never reads).
	data := make([]byte, rcvBufMax+4096)
	go c.Write(data)

	// Wait for the receiver's buffer to fill and the window to close.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		n.b.mu.Lock()
		full := s.rcvBuf.len() >= rcvBufMax
		n.b.mu.Unlock()
		if full {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Now drain; the probe must reopen the flow and deliver everything.
	got := 0
	buf := make([]byte, 32<<10)
	for got < len(data) {
		s.SetReadDeadline(time.Now().Add(10 * time.Second))
		nn, err := s.Read(buf)
		if err != nil {
			t.Fatalf("read after %d bytes: %v", got, err)
		}
		got += nn
	}
	if n.a.Stats().ZeroWindowProbes == 0 {
		t.Log("note: window reopened before probing was needed")
	}
}

func TestReadWriteDeadlines(t *testing.T) {
	n := newTestNet(t)
	c, _ := n.connect(t, 8080)
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := c.Read(make([]byte, 8)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("read deadline: %v", err)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	n := newTestNet(t)
	c, _ := n.connect(t, 8080)
	c.Close()
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestListenerBacklogAndClose(t *testing.T) {
	n := newTestNet(t)
	l, err := n.b.Listen(80, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.port != 80 {
		t.Fatal("port")
	}
	if _, err := n.b.Listen(80, 2); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("duplicate listen: %v", err)
	}
	c, err := n.a.Dial(ipB, 80, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.AcceptTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	l.Close()
	l.Close() // idempotent
	if _, err := l.Accept(); !errors.Is(err, ErrListenerClosed) {
		t.Fatalf("accept after close: %v", err)
	}
	// New dials are refused once the listener is gone.
	if _, err := n.a.Dial(ipB, 80, 2*time.Second); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
	_ = c
}

func TestManyConcurrentConnections(t *testing.T) {
	n := newTestNet(t)
	l, err := n.b.Listen(443, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const conns = 16
	var wg sync.WaitGroup
	errs := make(chan error, conns*2)

	wg.Add(1)
	go func() { // server
		defer wg.Done()
		for i := 0; i < conns; i++ {
			s, err := l.AcceptTimeout(10 * time.Second)
			if err != nil {
				errs <- err
				return
			}
			wg.Add(1)
			go func(s *Conn) { // echo
				defer wg.Done()
				buf := make([]byte, 1024)
				for {
					nn, err := s.Read(buf)
					if err != nil {
						s.Close()
						return
					}
					if _, err := s.Write(buf[:nn]); err != nil {
						return
					}
				}
			}(s)
		}
	}()

	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.a.Dial(ipB, 443, 10*time.Second)
			if err != nil {
				errs <- err
				return
			}
			msg := bytes.Repeat([]byte{byte(i)}, 512)
			if _, err := c.Write(msg); err != nil {
				errs <- err
				return
			}
			got := make([]byte, len(msg))
			c.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.ReadFull(&connReader{c}, got); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, msg) {
				errs <- errors.New("echo mismatch")
				return
			}
			c.Close()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	n := newTestNet(t)
	c, s := n.connect(t, 8080)
	c.Write([]byte("data"))
	buf := make([]byte, 8)
	s.Read(buf)
	st := n.a.Stats()
	if st.SegsOut == 0 || st.SegsIn == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}
