package compartment

import (
	"errors"
	"io"
	"sync"
)

// ErrClosed is returned by a Conn's Read or Write after its Close.
var ErrClosed = errors.New("compartment: connection closed")

// connBufSize is the size of a Conn's receive buffer and the largest
// chunk one Write hands the I/O stack.
const connBufSize = 64 << 10

// Conn is a transport reached through a Gate under the trusted-
// component-allocates policy: the L5 boundary of the dual-boundary
// design and of every gateway tenant's flow. The application domain
// provides the receive buffer and allocates its transmit buffer in the
// I/O domain's arena, so the I/O stack below never holds a pointer into
// the application's domain. Crossing costs are gate crossings, not TEE
// crossings.
//
// Read reads ahead: one Rx asks the transport for as much as the
// receive buffer holds, and the Reads after it are served from what is
// left without crossing the gate. A record layer that reads a header
// and then a body pays one round trip per delivery, not one per read.
//
// The transport's Write must not keep its argument: it copies what it
// sends before it returns, as tcp.Conn's does into its send queue. The
// transmit buffer is reused by the next Write without asking the I/O
// domain for it again.
//
// The transport's Close must end a Read or Write blocked in it, as a
// net.Conn's does: Close waits for both before it frees their buffers.
type Conn struct {
	rw   io.ReadWriteCloser
	gate *Gate
	app  *Domain

	// rmu serializes Reads, and Read against Close. It is held across
	// the transport's Read, which fills rxBuf.
	rmu sync.Mutex
	// rxBuf is the app-provided receive buffer ("provides the buffer
	// when receiving"). Its bytes [off, end) are delivered but not yet
	// read; rerr is the transport error that came with them, returned
	// once they are.
	rxBuf    *Buffer
	off, end int
	rerr     error

	// wmu serializes Writes, and Write against Close. It is held across
	// the transport's Write, which reads txBuf.
	wmu sync.Mutex
	// txBuf is the connection's transmit buffer in the I/O domain, as
	// large as the largest Write so far and held until Close. The app
	// writes into it and never reads it back.
	txBuf *Buffer

	// closed is set by Close under both rmu and wmu.
	closed bool
}

// NewConn wraps the transport rw, which lives in gate's I/O domain, for
// the application domain app. The receive buffer is allocated now; the
// transmit buffer on the first Write.
func NewConn(rw io.ReadWriteCloser, gate *Gate, app *Domain) *Conn {
	return &Conn{rw: rw, gate: gate, app: app, rxBuf: app.Alloc(connBufSize)}
}

// Read serves p from the delivered bytes no Read has taken yet; only
// when there are none does it cross the gate, once, for as much as the
// transport has, up to the whole receive buffer.
func (c *Conn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	if c.off == c.end {
		if err := c.rerr; err != nil {
			c.rerr = nil
			return 0, err
		}
		n, err := c.gate.Rx(c.rxBuf, c.rw.Read)
		if n == 0 {
			return 0, err
		}
		c.off, c.end, c.rerr = 0, n, err
	}
	data, err := c.rxBuf.Access(c.app)
	if err != nil {
		return 0, err
	}
	n := copy(p, data[c.off:c.end])
	c.off += n
	return n, nil
}

// Write hands p to the I/O stack in chunks of at most connBufSize. The
// app allocates directly in the I/O domain and fills the buffer there,
// then submits it: one gate call per chunk. Only a chunk larger than the
// buffer the connection holds pays AllocTx's round trip for a new one;
// the held buffer came back on the previous submit's exit.
func (c *Conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	total := 0
	for len(p) > 0 {
		n := min(len(p), connBufSize)
		if c.txBuf == nil || c.txBuf.Len() < n {
			if c.txBuf != nil {
				c.txBuf.Free()
			}
			//ciovet:transfers the connection owns its transmit buffer until Close frees it
			c.txBuf = c.gate.AllocTx(n)
		}
		if err := c.gate.FillTx(c.txBuf, p[:n]); err != nil {
			return total, err
		}
		err := c.gate.SubmitTx(c.txBuf, func(payload []byte) error {
			_, werr := c.rw.Write(payload[:n])
			return werr
		})
		if err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// Close closes the transport inside the I/O domain, which ends any Read
// or Write blocked in it, then frees both buffers.
func (c *Conn) Close() error {
	err := c.gate.Call(func(*Domain) error { return c.rw.Close() })
	c.rmu.Lock()
	c.wmu.Lock()
	c.closed = true
	c.rxBuf.Free()
	if c.txBuf != nil {
		c.txBuf.Free()
	}
	c.wmu.Unlock()
	c.rmu.Unlock()
	return err
}
