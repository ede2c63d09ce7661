package core

import (
	"confio/internal/compartment"
	"confio/internal/observe"
	"confio/internal/platform"
	"confio/internal/tcp"
)

// shimConn is the HostSocket design's boundary: a TCP connection whose
// stack runs on the untrusted host, reached through per-call TEE
// crossings. The host observes every call (type, size, timing) and the
// socket metadata — the observability the paper attributes to the
// enclave library-OS approach.
type shimConn struct {
	c     *tcp.Conn
	meter *platform.Meter
	obs   *observe.Meter
}

func newShimConn(c *tcp.Conn, meter *platform.Meter, obs *observe.Meter) *shimConn {
	obs.Observe(observe.ChSocketMeta, 0) // connection 4-tuple + options
	return &shimConn{c: c, meter: meter, obs: obs}
}

func (s *shimConn) Read(p []byte) (int, error) {
	s.meter.CrossTEE(2) // ocall + return
	n, err := s.c.Read(p)
	if n > 0 {
		s.meter.Copy(n) // data crosses the boundary
	}
	s.obs.Observe(observe.ChCallPattern, n)
	return n, err
}

func (s *shimConn) Write(p []byte) (int, error) {
	s.meter.CrossTEE(2)
	s.meter.Copy(len(p))
	s.obs.Observe(observe.ChCallPattern, len(p))
	return s.c.Write(p)
}

func (s *shimConn) Close() error {
	s.meter.CrossTEE(2)
	s.obs.Observe(observe.ChCallPattern, 0)
	return s.c.Close()
}

// gateConn is the DualBoundary design's L5 boundary: the application
// reaches its (distrusted) in-TEE I/O compartment through a lightweight
// gate that enforces the trusted-component-allocates policy. Crossing
// costs are gate crossings, not TEE crossings.
type gateConn struct {
	c    *tcp.Conn
	gate *compartment.Gate
	app  *compartment.Domain
	// rxBuf is the app-provided receive buffer ("provides the buffer
	// when receiving").
	rxBuf *compartment.Buffer
	// txBuf is the connection's transmit buffer in the I/O domain, as
	// large as the largest Write so far and held until Close.
	txBuf *compartment.Buffer
	// compromised, when set, is the breached I/O compartment: it mutates
	// every byte stream passing through the stack. Installed by
	// World.CompromiseIOStack for the multi-stage-attack experiment.
	compromised func([]byte)
}

const gateRxBufSize = 64 << 10

func newGateConn(c *tcp.Conn, gate *compartment.Gate, app *compartment.Domain) *gateConn {
	return &gateConn{c: c, gate: gate, app: app, rxBuf: app.Alloc(gateRxBufSize)}
}

func (g *gateConn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > gateRxBufSize {
			n = gateRxBufSize
		}
		// The app allocates directly in the I/O domain and fills the
		// buffer there; the I/O stack never sees an app pointer. Every
		// send asks the I/O domain for the buffer, a fresh one only when
		// the one it holds is too small.
		if g.txBuf == nil || g.txBuf.Len() < n {
			if g.txBuf != nil {
				g.txBuf.Free()
			}
			//ciovet:transfers the connection owns its transmit buffer until Close frees it
			g.txBuf = g.gate.AllocTx(n)
		} else if err := g.gate.ReuseTx(g.txBuf); err != nil {
			return total, err
		}
		if err := g.gate.FillTx(g.txBuf, p[:n]); err != nil {
			return total, err
		}
		err := g.gate.SubmitTx(g.txBuf, func(payload []byte) error {
			if g.compromised != nil {
				g.compromised(payload[:n])
			}
			_, werr := g.c.Write(payload[:n])
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

func (g *gateConn) Read(p []byte) (int, error) {
	want := len(p)
	if want > gateRxBufSize {
		want = gateRxBufSize
	}
	n, err := g.gate.Rx(g.rxBuf, func(into []byte) (int, error) {
		rn, rerr := g.c.Read(into[:want])
		if g.compromised != nil && rn > 0 {
			g.compromised(into[:rn])
		}
		return rn, rerr
	})
	if n > 0 {
		data, aerr := g.rxBuf.Access(g.app)
		if aerr != nil {
			return 0, aerr
		}
		copy(p, data[:n])
	}
	return n, err
}

func (g *gateConn) Close() error {
	defer g.rxBuf.Free()
	if g.txBuf != nil {
		defer g.txBuf.Free()
	}
	return g.gate.Call(func(*compartment.Domain) error { return g.c.Close() })
}
