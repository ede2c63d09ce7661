package compartment

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// transport is the I/O stack below a Conn. Each Read takes the next
// queued delivery, or as much of it as fits, and returns err with the
// last one and after it; with nothing queued and err nil it blocks until
// Close. Every Write is recorded.
type transport struct {
	queue   [][]byte
	err     error
	reads   int
	writes  [][]byte
	blocked chan struct{} // receives once a Read blocks
	closed  chan struct{}
	// onClose, when set, is the delivery a blocked Read returns on Close.
	onClose []byte
}

var errTransportClosed = errors.New("transport closed")

func newTransport(deliveries ...[]byte) *transport {
	return &transport{queue: deliveries, blocked: make(chan struct{}, 1), closed: make(chan struct{})}
}

func (t *transport) Read(p []byte) (int, error) {
	t.reads++
	if len(t.queue) == 0 {
		if t.err != nil {
			return 0, t.err
		}
		t.blocked <- struct{}{}
		<-t.closed
		return copy(p, t.onClose), errTransportClosed
	}
	n := copy(p, t.queue[0])
	if t.queue[0] = t.queue[0][n:]; len(t.queue[0]) == 0 {
		t.queue = t.queue[1:]
	}
	if len(t.queue) == 0 {
		return n, t.err
	}
	return n, nil
}

func (t *transport) Write(p []byte) (int, error) {
	t.writes = append(t.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (t *transport) Close() error {
	select {
	case <-t.closed:
	default:
		close(t.closed)
	}
	return nil
}

// record frames body the way ctls does: type, then a 16-bit length.
func record(body string) []byte {
	return append([]byte{0x17, byte(len(body) >> 8), byte(len(body))}, body...)
}

// readRecord reads a record the way ctls's readRecord does: the 3-byte
// header, then the body it announces, each with its own io.ReadFull.
func readRecord(r io.Reader) (string, error) {
	var hdr [3]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", err
	}
	body := make([]byte, int(hdr[1])<<8|int(hdr[2]))
	_, err := io.ReadFull(r, body)
	return string(body), err
}

// TestConnReadsARecordInOneRx: a record whose header and body arrive in
// one delivery costs one Rx — two crossings, not four — and its bytes
// are metered once.
func TestConnReadsARecordInOneRx(t *testing.T) {
	app, _, g, m := setup()
	tr := newTransport(record("one delivery"))
	tr.err = io.EOF
	c := NewConn(tr, g, app)
	body, err := readRecord(c)
	if err != nil || body != "one delivery" {
		t.Fatalf("record = %q, %v", body, err)
	}
	if got := g.Crossings(); got != 2 {
		t.Fatalf("one record took %d gate crossings, want 2 (one Rx)", got)
	}
	if tr.reads != 1 {
		t.Fatalf("one record took %d transport reads, want 1", tr.reads)
	}
	if got, want := m.Snapshot().BytesCopied, uint64(len(record("one delivery"))); got != want {
		t.Fatalf("metered %d bytes copied, want %d", got, want)
	}
}

// TestConnServesOneDeliveryAcrossShortReads: short Reads drain what one
// Rx delivered without crossing again, in order.
func TestConnServesOneDeliveryAcrossShortReads(t *testing.T) {
	app, _, g, m := setup()
	want := bytes.Repeat([]byte("0123456789abcdef"), 40)
	tr := newTransport(want)
	tr.err = io.EOF
	c := NewConn(tr, g, app)
	var got []byte
	p := make([]byte, 7)
	for len(got) < len(want) {
		n, err := c.Read(p)
		if err != nil {
			t.Fatalf("after %d bytes: %v", len(got), err)
		}
		got = append(got, p[:n]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("short reads returned %q, want %q", got, want)
	}
	if n := g.Crossings(); n != 2 {
		t.Fatalf("%d short reads of one delivery took %d crossings, want 2", (len(want)+6)/7, n)
	}
	if got := m.Snapshot().BytesCopied; got != uint64(len(want)) {
		t.Fatalf("metered %d bytes copied, want %d", got, len(want))
	}
}

// TestConnReturnsBufferedBytesBeforeError: what a delivery brought is
// read before the error that ended it, whether the error came with the
// bytes or on the transport's next Read.
func TestConnReturnsBufferedBytesBeforeError(t *testing.T) {
	for _, tc := range []struct {
		name       string
		deliveries [][]byte
	}{
		{"with the bytes", [][]byte{[]byte("tail")}},
		{"after the bytes", [][]byte{[]byte("tail"), {}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app, _, g, _ := setup()
			tr := newTransport(tc.deliveries...)
			tr.err = io.EOF
			c := NewConn(tr, g, app)
			var got []byte
			p := make([]byte, 3)
			for {
				n, err := c.Read(p)
				got = append(got, p[:n]...)
				if err != nil {
					if err != io.EOF {
						t.Fatalf("read error %v, want io.EOF", err)
					}
					break
				}
			}
			if string(got) != "tail" {
				t.Fatalf("read %q before EOF, want %q", got, "tail")
			}
		})
	}
}

// TestConnCloseFreesBothBuffers: Close returns the receive buffer to
// the application domain and the transmit buffer to the I/O domain,
// closes the transport, and ends both directions.
func TestConnCloseFreesBothBuffers(t *testing.T) {
	app, ioDom, g, _ := setup()
	tr := newTransport([]byte("unread"))
	c := NewConn(tr, g, app)
	if _, err := c.Write([]byte("out")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	if app.AllocatedBytes() != connBufSize || ioDom.AllocatedBytes() != 3 {
		t.Fatalf("live: app holds %d, I/O holds %d, want %d and 3", app.AllocatedBytes(), ioDom.AllocatedBytes(), connBufSize)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if app.AllocatedBytes() != 0 || ioDom.AllocatedBytes() != 0 {
		t.Fatalf("after Close: app holds %d bytes, I/O holds %d, want 0 and 0", app.AllocatedBytes(), ioDom.AllocatedBytes())
	}
	select {
	case <-tr.closed:
	default:
		t.Fatal("Close left the transport open")
	}
	if _, err := c.Read(make([]byte, 8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after Close: %v, want ErrClosed", err)
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close: %v, want ErrClosed", err)
	}
}

// TestConnKeepsOneTxBuffer: a connection allocates its I/O-domain
// transmit buffer on the first Write and keeps it, replaced only by a
// larger one when a larger Write comes. A Write that allocates pays the
// round trip and the submit (four gate crossings); a Write into the held
// buffer pays the submit alone (two), whose exit hands the buffer back.
// Close returns it, with the receive buffer.
func TestConnKeepsOneTxBuffer(t *testing.T) {
	app, ioDom := NewDomain("app", nil), NewDomain("io", nil)
	gate := NewGate(app, ioDom, nil)
	tr := newTransport()
	c := NewConn(tr, gate, app)
	if got := ioDom.AllocatedBytes(); got != 0 {
		t.Fatalf("I/O domain holds %d bytes before the first Write: the buffer must not be allocated at connect", got)
	}
	largest := 0
	for i, w := range []struct {
		msg       string
		crossings uint64
	}{
		{"first", 4},
		{"second, longer than the first", 4},
		{"3", 2},
		{"fourth, no longer", 2},
	} {
		largest = max(largest, len(w.msg))
		before := gate.Crossings()
		if _, err := c.Write([]byte(w.msg)); err != nil {
			t.Fatal(err)
		}
		if got := gate.Crossings() - before; got != w.crossings {
			t.Fatalf("write %d took %d gate crossings, want %d", i, got, w.crossings)
		}
		if got := ioDom.AllocatedBytes(); got != largest {
			t.Fatalf("after write %d the I/O domain holds %d bytes, want one %d-byte buffer", i, got, largest)
		}
		if string(tr.writes[i]) != w.msg {
			t.Fatalf("write %d handed the I/O stack %q, want %q", i, tr.writes[i], w.msg)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if app.AllocatedBytes() != 0 || ioDom.AllocatedBytes() != 0 {
		t.Fatalf("after Close: app holds %d bytes, I/O holds %d, want 0 and 0", app.AllocatedBytes(), ioDom.AllocatedBytes())
	}
}

// TestConnCloseRacesBlockedRead: Close on one goroutine while a Read is
// blocked in Rx on another. The Read ends with the transport's error —
// after the bytes the transport handed it on the way out, if any — and
// never touches a freed buffer; later Reads fail with ErrClosed. Run
// under -race (make race) this is also the check that Close's free is
// ordered after the Read's last access.
func TestConnCloseRacesBlockedRead(t *testing.T) {
	for _, last := range []string{"", "last bytes"} {
		app, ioDom, g, _ := setup()
		tr := newTransport()
		tr.onClose = []byte(last)
		c := NewConn(tr, g, app)
		type result struct {
			got []byte
			err error
		}
		done := make(chan result)
		go func() {
			var r result
			p := make([]byte, 64)
			for r.err == nil {
				var n int
				n, r.err = c.Read(p)
				r.got = append(r.got, p[:n]...)
			}
			done <- r
		}()
		<-tr.blocked
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		r := <-done
		if errors.Is(r.err, ErrPolicy) {
			t.Fatalf("%q: the blocked Read saw a policy fault: %v", last, r.err)
		}
		if !errors.Is(r.err, errTransportClosed) && !errors.Is(r.err, ErrClosed) {
			t.Fatalf("%q: the blocked Read ended with %v", last, r.err)
		}
		if string(r.got) != last {
			t.Fatalf("the blocked Read returned %q, want %q", r.got, last)
		}
		if _, err := c.Read(make([]byte, 8)); !errors.Is(err, ErrClosed) {
			t.Fatalf("%q: Read after Close: %v, want ErrClosed", last, err)
		}
		if app.AllocatedBytes() != 0 || ioDom.AllocatedBytes() != 0 {
			t.Fatalf("%q: after Close app holds %d bytes, I/O holds %d", last, app.AllocatedBytes(), ioDom.AllocatedBytes())
		}
	}
}
