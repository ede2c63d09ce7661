package core

import (
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

// breachedConn is a fully breached I/O compartment's view of a
// connection: below the L5 gate, it mutates every byte stream passing
// through the stack in either direction. World.CompromiseIOStack
// installs it for the multi-stage-attack experiment.
type breachedConn struct {
	*tcp.Conn
	mutate func([]byte)
}

func (b breachedConn) Read(p []byte) (int, error) {
	n, err := b.Conn.Read(p)
	if n > 0 {
		b.mutate(p[:n])
	}
	return n, err
}

func (b breachedConn) Write(p []byte) (int, error) {
	b.mutate(p)
	return b.Conn.Write(p)
}
