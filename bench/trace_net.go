package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"confio/internal/ctls"
	"confio/internal/ipv4"
	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/simnet"
	"confio/internal/tcp"
	"confio/internal/workload"
)

// The probe stack is the network path the benchmark assembles itself
// from public constructors, the same shape core gives l2-safering plus
// ctls: per side safering.New → Endpoint.NIC / NewHostPort.NIC →
// nic.StartPump → netstack.New/Start, then Listen/Dial and
// ctls.Server/Client. (The compartment gate has no public conn wrapper;
// the compartment.gate_call_ns micro-drive covers it.) Built with a
// netTracer, every seam carries a timing interposer; built without, it
// is the untraced twin the tracing overhead is measured against.

const (
	probePort = 7443
	// dataFrameMin separates data-bearing frames from pure ACKs (54 B).
	dataFrameMin = 100
)

var (
	probeClientIP = ipv4.Addr{10, 8, 0, 1}
	probeServerIP = ipv4.Addr{10, 8, 0, 2}
)

const (
	sideClient = 0
	sideServer = 1
)

var sideNames = [2]string{"client", "server"}

type spanKind uint8

const (
	spAppWrite   spanKind = iota // client app → ctls
	spAppRead                    // client app ← ctls
	spSrvRead                    // server app ← ctls
	spSrvWrite                   // server app → ctls
	spInnerWrite                 // ctls → conn under it
	spInnerRead                  // ctls ← conn under it
	spGuestSend                  // netstack → nic.Guest
	spGuestRecv                  // netstack ← nic.Guest
	spHostPop                    // pump ← nic.Host
	spHostPush                   // pump → nic.Host
	spWire                       // simnet.Network.OnFrame
	spKinds
)

var kindNames = [spKinds]string{"app.write", "app.read", "srv.read", "srv.write",
	"ctls.inner_write", "ctls.inner_read", "guest.send", "guest.recv", "host.pop", "host.push", "simnet.frame"}

// netSpan is one recorded call at a seam.
type netSpan struct {
	kind       spanKind
	side       uint8
	start, end int64 // ns since the tracer's epoch
	n          int32 // frames moved, or bytes for conn and app spans
	maxLen     int32 // longest frame of a batch: tells data from pure ACKs
	req        uint32
	parent     int32 // causing span, filled in by the analysis; -1 none
}

// seamCount holds the counts an interposer keeps at its boundary; the
// bulk shape is read from these alone.
type seamCount struct {
	calls  atomic.Uint64 // calls that moved at least one frame
	frames atomic.Uint64
	busyNs atomic.Int64 // time inside calls that moved frames or hit full
	full   atomic.Uint64
}

// netTracer owns the span buffer and the per-seam counts of one probe
// stack. Spans are stored through an atomic cursor into a preallocated
// buffer: interposers run on the app, netstack and pump goroutines at
// once, and none of them may block or allocate.
type netTracer struct {
	epoch time.Time
	spans []netSpan
	next  atomic.Int64
	req   atomic.Uint32 // request in flight, set by the client app

	guest, host [2][2]seamCount    // [side][0 tx-ward call, 1 rx-ward call]
	connNs      [2][2]atomic.Int64 // [side][0 write, 1 read] time inside the conn under ctls
	appNs       [2][2]atomic.Int64 // [side][0 write, 1 read] time inside ctls calls
}

func newNetTracer(capacity int) *netTracer {
	return &netTracer{epoch: time.Now(), spans: make([]netSpan, capacity)}
}

func (t *netTracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *netTracer) record(kind spanKind, side uint8, start, end int64, n, maxLen int) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return
	}
	t.spans[i] = netSpan{kind: kind, side: side, start: start, end: end,
		n: int32(n), maxLen: int32(maxLen), req: t.req.Load(), parent: -1}
}

// recorded returns the spans stored so far. Call it only after the probe
// stack is closed, when no interposer runs any more.
func (t *netTracer) recorded() []netSpan {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// --- interposers -------------------------------------------------------

// tracedGuest wraps the nic.BatchGuest that safering.Endpoint.NIC
// returns. It implements exactly nic.BatchGuest — netstack picks its
// path by type assertion — and hands received frames through untouched,
// so each is still released exactly once, by netstack.
type tracedGuest struct {
	in   nic.BatchGuest
	t    *netTracer
	side uint8
}

func (g *tracedGuest) MAC() [6]byte { return g.in.MAC() }
func (g *tracedGuest) MTU() int     { return g.in.MTU() }

func (g *tracedGuest) Send(frame []byte) error {
	t0 := g.t.now()
	err := g.in.Send(frame)
	n := 0
	if err == nil {
		n = 1
	}
	g.sent(t0, n, len(frame), err)
	return err
}

func (g *tracedGuest) SendBatch(frames [][]byte) (int, error) {
	t0 := g.t.now()
	n, err := g.in.SendBatch(frames)
	longest := 0
	for _, f := range frames[:n] {
		if len(f) > longest {
			longest = len(f)
		}
	}
	g.sent(t0, n, longest, err)
	return n, err
}

func (g *tracedGuest) sent(t0 int64, n, longest int, err error) {
	c := &g.t.guest[g.side][0]
	full := errors.Is(err, nic.ErrFull)
	if full {
		c.full.Add(1)
	}
	if n == 0 && !full {
		return
	}
	t1 := g.t.now()
	c.busyNs.Add(t1 - t0)
	if n > 0 {
		c.calls.Add(1)
		c.frames.Add(uint64(n))
		g.t.record(spGuestSend, g.side, t0, t1, n, longest)
	}
}

func (g *tracedGuest) Recv() (nic.Frame, error) {
	t0 := g.t.now()
	f, err := g.in.Recv()
	if err != nil {
		return f, err
	}
	g.received(t0, 1, len(f.Bytes()))
	return f, nil
}

func (g *tracedGuest) RecvBatch(out []nic.Frame) (int, error) {
	t0 := g.t.now()
	n, err := g.in.RecvBatch(out)
	if n == 0 {
		return n, err
	}
	longest := 0
	for _, f := range out[:n] {
		if l := len(f.Bytes()); l > longest {
			longest = l
		}
	}
	g.received(t0, n, longest)
	return n, err
}

func (g *tracedGuest) received(t0 int64, n, longest int) {
	t1 := g.t.now()
	c := &g.t.guest[g.side][1]
	c.busyNs.Add(t1 - t0)
	c.calls.Add(1)
	c.frames.Add(uint64(n))
	g.t.record(spGuestRecv, g.side, t0, t1, n, longest)
}

// tracedHost wraps the nic.Host that safering.HostPort.NIC returns,
// which is also a nic.BatchHost and a nic.NotifyHost; the pump asserts
// both, so the wrapper implements exactly those.
type tracedHost struct {
	in interface {
		nic.BatchHost
		nic.NotifyHost
	}
	t    *netTracer
	side uint8
}

func (h *tracedHost) FrameCap() int               { return h.in.FrameCap() }
func (h *tracedHost) ArmNotify() bool             { return h.in.ArmNotify() }
func (h *tracedHost) SuppressNotify()             { h.in.SuppressNotify() }
func (h *tracedHost) NotifyChan() <-chan struct{} { return h.in.NotifyChan() }

func (h *tracedHost) Pop(buf []byte) (int, error) {
	t0 := h.t.now()
	n, err := h.in.Pop(buf)
	if err != nil {
		return n, err
	}
	h.popped(t0, 1, n)
	return n, nil
}

func (h *tracedHost) PopBatch(bufs [][]byte, lens []int) (int, error) {
	t0 := h.t.now()
	n, err := h.in.PopBatch(bufs, lens)
	if n == 0 {
		return n, err
	}
	longest := 0
	for _, l := range lens[:n] {
		if l > longest {
			longest = l
		}
	}
	h.popped(t0, n, longest)
	return n, err
}

func (h *tracedHost) popped(t0 int64, n, longest int) {
	t1 := h.t.now()
	c := &h.t.host[h.side][0]
	c.busyNs.Add(t1 - t0)
	c.calls.Add(1)
	c.frames.Add(uint64(n))
	h.t.record(spHostPop, h.side, t0, t1, n, longest)
}

func (h *tracedHost) Push(frame []byte) error {
	t0 := h.t.now()
	err := h.in.Push(frame)
	n := 0
	if err == nil {
		n = 1
	}
	h.pushed(t0, n, len(frame), err)
	return err
}

func (h *tracedHost) PushBatch(frames [][]byte) (int, error) {
	t0 := h.t.now()
	n, err := h.in.PushBatch(frames)
	longest := 0
	for _, f := range frames[:n] {
		if len(f) > longest {
			longest = len(f)
		}
	}
	h.pushed(t0, n, longest, err)
	return n, err
}

func (h *tracedHost) pushed(t0 int64, n, longest int, err error) {
	c := &h.t.host[h.side][1]
	full := errors.Is(err, nic.ErrFull)
	if full {
		c.full.Add(1)
	}
	if n == 0 && !full {
		return
	}
	t1 := h.t.now()
	c.busyNs.Add(t1 - t0)
	if n > 0 {
		c.calls.Add(1)
		c.frames.Add(uint64(n))
		h.t.record(spHostPush, h.side, t0, t1, n, longest)
	}
}

// tracedConn is the io.ReadWriter under ctls. Its time counts toward the
// busy shares only once live, so the handshake's blocking reads do not.
type tracedConn struct {
	in   io.ReadWriter
	t    *netTracer
	side uint8
	live atomic.Bool
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := c.t.now()
	n, err := c.in.Write(p)
	t1 := c.t.now()
	if c.live.Load() {
		c.t.connNs[c.side][0].Add(t1 - t0)
	}
	c.t.record(spInnerWrite, c.side, t0, t1, n, 0)
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	t0 := c.t.now()
	n, err := c.in.Read(p)
	t1 := c.t.now()
	if c.live.Load() {
		c.t.connNs[c.side][1].Add(t1 - t0)
	}
	c.t.record(spInnerRead, c.side, t0, t1, n, 0)
	return n, err
}

// tracedApp times the application's calls into ctls.
type tracedApp struct {
	in          io.ReadWriter
	t           *netTracer
	side        uint8
	write, read spanKind
}

func (a *tracedApp) Write(p []byte) (int, error) {
	t0 := a.t.now()
	n, err := a.in.Write(p)
	t1 := a.t.now()
	a.t.appNs[a.side][0].Add(t1 - t0)
	a.t.record(a.write, a.side, t0, t1, n, 0)
	return n, err
}

func (a *tracedApp) Read(p []byte) (int, error) {
	t0 := a.t.now()
	n, err := a.in.Read(p)
	t1 := a.t.now()
	a.t.appNs[a.side][1].Add(t1 - t0)
	a.t.record(a.read, a.side, t0, t1, n, 0)
	return n, err
}

// --- the probe stack ---------------------------------------------------

type probeStack struct {
	net    *simnet.Network
	meter  platform.Meter
	tracer *netTracer
	psk    []byte
	stacks [2]*netstack.Stack
	// frames counts switched frames even untraced (simnet.frames_per_MB).
	frames  atomic.Uint64
	serving sync.WaitGroup
	closers []func()
	// accepted holds the server's connections so close can abort them:
	// stopping a netstack does not wake a reader blocked on its conn.
	mu       sync.Mutex
	accepted []*tcp.Conn
}

// newProbeStack assembles both sides and starts the echo/bulk service.
// A nil tracer builds the untraced twin.
func newProbeStack(tr *netTracer) (*probeStack, error) {
	p := &probeStack{net: simnet.New(), tracer: tr, psk: []byte("confbench-probe-psk-0123456789abcdef")}
	p.net.OnFrame(func(rec simnet.CaptureRecord) {
		p.frames.Add(1)
		if tr != nil {
			now := tr.now()
			tr.record(spWire, uint8(rec.SrcPort), now, now, 1, rec.Len)
		}
	})
	for side, ip := range [2]ipv4.Addr{probeClientIP, probeServerIP} {
		cfg := safering.DefaultConfig()
		cfg.MAC[5] = 0xC1 + byte(side)
		ep, err := safering.New(cfg, &p.meter)
		if err != nil {
			p.close()
			return nil, err
		}
		guest, host := ep.NIC(), safering.NewHostPort(ep.Shared()).NIC()
		if tr != nil {
			guest, host = traceGuest(guest, tr, uint8(side)), traceHost(host, tr, uint8(side))
		}
		// Ports are handed out in order, so the client's is 0: the
		// wire spans carry the port as their side.
		pump := nic.StartPump(host, p.net.NewPort())
		p.closers = append(p.closers, pump.Stop)
		wd := safering.NewWatchdog(safering.DefaultWatchdogConfig(), ep)
		wd.Start()
		p.closers = append(p.closers, wd.Stop)
		p.stacks[side] = netstack.New(guest, ip)
		p.stacks[side].Start()
		p.closers = append(p.closers, p.stacks[side].Close)
	}
	l, err := p.stacks[sideServer].Listen(probePort, 16)
	if err != nil {
		p.close()
		return nil, err
	}
	p.closers = append(p.closers, l.Close)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.accepted = append(p.accepted, c)
			p.mu.Unlock()
			p.serving.Add(1)
			go func() {
				defer p.serving.Done()
				p.serve(c)
			}()
		}
	}()
	return p, nil
}

// traceGuest wraps g with exactly the optional interfaces it has. The
// safe ring's guest is a nic.BatchGuest; a plain nic.Guest would have to
// stay plain, and the probe stack has none, so it is refused loudly.
func traceGuest(g nic.Guest, tr *netTracer, side uint8) nic.Guest {
	bg, ok := g.(nic.BatchGuest)
	if !ok {
		panic("bench: probe stack guest is not a nic.BatchGuest")
	}
	return &tracedGuest{in: bg, t: tr, side: side}
}

func traceHost(h nic.Host, tr *netTracer, side uint8) nic.Host {
	bh, ok := h.(interface {
		nic.BatchHost
		nic.NotifyHost
	})
	if !ok {
		panic("bench: probe stack host is not a nic.BatchHost and nic.NotifyHost")
	}
	return &tracedHost{in: bh, t: tr, side: side}
}

// secure runs the ctls handshake over c, with the conn interposer under
// it and the app interposer over it when traced.
func (p *probeStack) secure(c *tcp.Conn, side uint8) (io.ReadWriter, *ctls.Conn, error) {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var under io.ReadWriter = c
	var tc *tracedConn
	if p.tracer != nil {
		tc = &tracedConn{in: c, t: p.tracer, side: side}
		under = tc
	}
	hs := ctls.Client
	if side == sideServer {
		hs = ctls.Server
	}
	sec, err := hs(under, p.psk, &p.meter)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	c.SetReadDeadline(time.Time{})
	var app io.ReadWriter = sec
	if tc != nil {
		tc.live.Store(true)
		a := &tracedApp{in: sec, t: p.tracer, side: side, write: spAppWrite, read: spAppRead}
		if side == sideServer {
			a.write, a.read = spSrvWrite, spSrvRead
		}
		app = a
	}
	return app, sec, nil
}

// serve is core.World's application service, reimplemented here because
// the benchmark owns this stack: 'E' echoes, 'B' drains a byte count and
// acknowledges it.
func (p *probeStack) serve(c *tcp.Conn) {
	app, sec, err := p.secure(c, sideServer)
	if err != nil {
		return
	}
	defer c.Close()
	defer sec.Close()
	var op [1]byte
	if _, err := io.ReadFull(app, op[:]); err != nil {
		return
	}
	switch op[0] {
	case 'E':
		buf := make([]byte, 64<<10)
		for {
			n, err := app.Read(buf)
			if err != nil {
				return
			}
			if _, err := app.Write(buf[:n]); err != nil {
				return
			}
		}
	case 'B':
		var hdr [8]byte
		if _, err := io.ReadFull(app, hdr[:]); err != nil {
			return
		}
		if _, err := workload.BulkRecv(app, int64(binary.BigEndian.Uint64(hdr[:]))); err != nil {
			return
		}
		app.Write([]byte{1}) //nolint:errcheck // the client's ack read reports a lost ack
	}
}

// probeConn is a client connection with its closer.
type probeConn struct {
	io.ReadWriter
	sec *ctls.Conn
	raw *tcp.Conn
}

func (c *probeConn) Close() {
	c.sec.Close()
	c.raw.Close()
}

func (p *probeStack) dial(service byte) (*probeConn, error) {
	c, err := p.stacks[sideClient].Dial(probeServerIP, probePort, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("probe dial: %w", err)
	}
	app, sec, err := p.secure(c, sideClient)
	if err != nil {
		return nil, fmt.Errorf("probe handshake: %w", err)
	}
	pc := &probeConn{ReadWriter: app, sec: sec, raw: c}
	if _, err := app.Write([]byte{service}); err != nil {
		pc.Close()
		return nil, err
	}
	return pc, nil
}

func (p *probeStack) close() {
	p.mu.Lock()
	for _, c := range p.accepted {
		c.Abort()
	}
	p.accepted = nil
	p.mu.Unlock()
	for i := len(p.closers) - 1; i >= 0; i-- {
		p.closers[i]()
	}
	p.closers = nil
	p.serving.Wait()
}

// tcpStats sums both endpoints' counters.
func (p *probeStack) tcpStats() (st tcp.Stats, drops uint64) {
	for _, s := range p.stacks {
		e := s.TCP.Stats()
		st.SegsOut += e.SegsOut
		st.Retransmits += e.Retransmits
		st.FastRetransmits += e.FastRetransmits
		drops += s.Stats().SendDrops
	}
	return st, drops
}

// --- echo shape --------------------------------------------------------

// probeEcho runs verified echoes on a probe stack for d (or count ops
// when count > 0) and returns the round-trip samples and the per-op
// platform costs. With a tracer it stamps each round's request id.
func probeEcho(tr *netTracer, seed int64, d time.Duration, count int) (*series, platform.Costs, uint64, error) {
	p, err := newProbeStack(tr)
	if err != nil {
		return nil, platform.Costs{}, 0, err
	}
	defer p.close()
	conn, err := p.dial('E')
	if err != nil {
		return nil, platform.Costs{}, 0, err
	}
	defer conn.Close()
	ec := echoConn{conn: conn, resp: make([]byte, echoSize), next: payloadBase(seed, 7)}
	wd := startWatchdog(opTimeout)
	defer wd.close()
	done := make(chan error, 1)
	rtts := newSeries(1 << 17)
	var costs platform.Costs
	var ops uint64
	go func() {
		// Warm-up: cwnd, ARP and the pump's ladder settle.
		for i := 0; i < 50; i++ {
			if _, err := ec.roundTrip(wd); err != nil {
				done <- err
				return
			}
		}
		before := p.meter.Snapshot()
		for t0 := time.Now(); ; {
			if tr != nil {
				tr.req.Add(1)
			}
			rtt, err := ec.roundTrip(wd)
			if err != nil {
				done <- err
				return
			}
			rtts.add(float64(rtt))
			ops++
			if count > 0 {
				if int(ops) >= count {
					break
				}
			} else if time.Since(t0) >= d {
				break
			}
		}
		costs = p.meter.Snapshot().Sub(before)
		done <- nil
	}()
	select {
	case err := <-done:
		return rtts, costs, ops, err
	case <-wd.hung:
		return nil, platform.Costs{}, 0, fmt.Errorf("probe echo exceeded the %v op timeout", opTimeout)
	}
}

// chainStep names one boundary of the request/reply chain: the span that
// supplies the timestamp, which edge of it, and the layer charged with
// the time since the previous boundary.
type chainStep struct {
	kind  spanKind
	side  uint8
	end   bool   // take the span's end (else its start)
	data  bool   // must carry a data-bearing frame
	layer string // "" for the first boundary
}

// echoChain is one round trip as the interposers see it. A wait layer is
// the gap between one seam's call returning and the next seam's call
// starting; a call layer is the call itself.
var echoChain = func() []chainStep {
	leg := func(from, to uint8, write, read spanKind, first string) []chainStep {
		return []chainStep{
			{kind: write, side: from, layer: first},
			{kind: spInnerWrite, side: from, layer: "ctls.seal_us"},
			{kind: spGuestSend, side: from, data: true, layer: "netstack.tx_us"},
			{kind: spGuestSend, side: from, data: true, end: true, layer: "safering.send_us"},
			{kind: spHostPop, side: from, data: true, layer: "nic.tx_wake_us"},
			{kind: spHostPop, side: from, data: true, end: true, layer: "safering.pop_us"},
			{kind: spWire, side: from, data: true, layer: "nic.fwd_us"},
			{kind: spHostPush, side: to, data: true, layer: "nic.rx_wake_us"},
			{kind: spHostPush, side: to, data: true, end: true, layer: "safering.push_us"},
			{kind: spGuestRecv, side: to, data: true, layer: "netstack.rx_wake_us"},
			{kind: spGuestRecv, side: to, data: true, end: true, layer: "safering.recv_us"},
			{kind: spInnerRead, side: to, end: true, layer: "netstack.rx_us"},
			{kind: read, side: to, end: true, layer: "ctls.open_us"},
		}
	}
	c := leg(sideClient, sideServer, spAppWrite, spSrvRead, "")
	return append(c, leg(sideServer, sideClient, spSrvWrite, spAppRead, "workload.turn_us")...)
}()

// echoLayers lists the chain's layers in table order.
var echoLayers = []string{"ctls.seal_us", "netstack.tx_us", "safering.send_us", "nic.tx_wake_us", "safering.pop_us",
	"nic.fwd_us", "nic.rx_wake_us", "safering.push_us", "netstack.rx_wake_us", "safering.recv_us",
	"netstack.rx_us", "ctls.open_us", "workload.turn_us"}

// echoBreakdown is the analysed echo trace.
type echoBreakdown struct {
	rounds, matched int
	rtt             *series            // traced round trips, ns
	layer           map[string]*series // per round, both legs summed, ns
	unattributedNs  float64            // summed over all rounds
	totalNs         float64
}

// analyseEcho walks the spans round by round. Spans are matched in chain
// order: each boundary is the first span of its kind and side, carrying
// a data frame where required, that ends no earlier than the previous
// boundary. Boundaries are clamped to be monotone (a pump's pop may
// already be running when the send returns), so a matched round's
// layers sum to its round trip exactly; a round with a missing span is
// wholly unattributed.
func analyseEcho(spans []netSpan) *echoBreakdown {
	b := &echoBreakdown{rtt: newSeries(1 << 17), layer: map[string]*series{}}
	for _, l := range echoLayers {
		b.layer[l] = newSeries(1 << 17)
	}
	// Index spans by request, in recording order (close to time order).
	byReq := map[uint32][]int{}
	var reqs []uint32
	for i := range spans {
		r := spans[i].req
		if r == 0 {
			continue // warm-up
		}
		if _, ok := byReq[r]; !ok {
			reqs = append(reqs, r)
		}
		byReq[r] = append(byReq[r], i)
	}
	sums := map[string]float64{}
	for _, r := range reqs {
		idx := byReq[r]
		b.rounds++
		first, last := -1, -1
		for _, i := range idx {
			if spans[i].kind == spAppWrite && first < 0 {
				first = i
			}
			if spans[i].kind == spAppRead {
				last = i
			}
		}
		if first < 0 || last < 0 {
			continue
		}
		rtt := float64(spans[last].end - spans[first].start)
		b.rtt.add(rtt)
		b.totalNs += rtt

		for k := range sums {
			delete(sums, k)
		}
		at := spans[first].start
		prev := int32(-1)
		ok := true
		for _, st := range echoChain {
			found := -1
			for _, i := range idx {
				s := &spans[i]
				if s.kind != st.kind || s.side != st.side || s.end < at {
					continue
				}
				if st.data && s.maxLen < dataFrameMin {
					continue
				}
				if found < 0 || s.start < spans[found].start {
					found = i
				}
			}
			if found < 0 {
				ok = false
				break
			}
			ts := spans[found].start
			if st.end {
				ts = spans[found].end
			}
			if ts < at {
				ts = at
			}
			if st.layer != "" {
				sums[st.layer] += float64(ts - at)
			}
			at = ts
			// Each span of the chain is caused by the one before it.
			if int32(found) != prev {
				spans[found].parent = prev
				prev = int32(found)
			}
		}
		if !ok {
			b.unattributedNs += rtt
			continue
		}
		b.matched++
		var covered float64
		for _, l := range echoLayers {
			b.layer[l].add(sums[l])
			covered += sums[l]
		}
		b.unattributedNs += rtt - covered
	}
	return b
}

// --- bulk shape --------------------------------------------------------

// probeBulk streams rounds of total bytes for d on a probe stack and
// returns bytes acknowledged and elapsed time.
func probeBulk(p *probeStack, seed int64, d time.Duration, total int64) (int64, time.Duration, error) {
	payload := workload.Payload(payloadBase(seed, 8), bulkChunk)
	wd := startWatchdog(opTimeout)
	defer wd.close()
	type outcome struct {
		bytes   int64
		elapsed time.Duration
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		t0 := time.Now()
		for first := true; first || time.Since(t0) < d; first = false {
			conn, err := p.dial('B')
			if err != nil {
				o.err = err
				break
			}
			var hdr [8]byte
			binary.BigEndian.PutUint64(hdr[:], uint64(total))
			_, err = conn.Write(hdr[:])
			for sent := int64(0); err == nil && sent < total; sent += int64(len(payload)) {
				wd.begin(time.Now())
				_, err = conn.Write(payload)
			}
			var ack [1]byte
			if err == nil {
				wd.begin(time.Now())
				_, err = io.ReadFull(conn, ack[:])
			}
			wd.end()
			conn.Close()
			if err != nil || ack[0] != 1 {
				o.err = fmt.Errorf("probe bulk round: ack %d: %v", ack[0], err)
				break
			}
			o.bytes += total
		}
		o.elapsed = time.Since(t0)
		done <- o
	}()
	select {
	case o := <-done:
		return o.bytes, o.elapsed, o.err
	case <-wd.hung:
		return 0, 0, fmt.Errorf("probe bulk exceeded the %v op timeout", opTimeout)
	}
}
