package gateway

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"confio/internal/compartment"
	"confio/internal/ctls"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/tcp"
)

// Handler processes one decrypted tenant message and returns the reply
// to send back on the same flow (nil reply sends nothing). It runs
// inside the tenant's compartment context: msg is the tenant's
// plaintext and must not be retained past the call. The default handler
// echoes, which is what the benchmarks and chaos scenarios drive; the
// middlebox example installs an inspection handler.
type Handler func(id TenantID, msg []byte) ([]byte, error)

// EchoHandler returns every message unchanged.
func EchoHandler(_ TenantID, msg []byte) ([]byte, error) { return msg, nil }

// Config assembles a Gateway.
type Config struct {
	// Master is the gateway master secret; per-tenant ctls keys are
	// derived from it (TenantKey).
	Master []byte
	// Tenants is the provisioned tenant set. Flows claiming any other id
	// are refused before any per-tenant state exists.
	Tenants []TenantID
	// MaxFlows caps concurrent authenticated flows per tenant; breaching
	// it is a flood fault against the tenant's eviction budget. 0 means
	// unlimited (no flood containment — tests only).
	MaxFlows int
	// TenantPolicy is the per-tenant fault budget: every authenticated
	// fault (flood, stall-shed) takes one admission, and exhaustion is
	// sticky eviction. Layered strictly above the device-wide recovery
	// policy — tenant faults never touch the device death budget.
	TenantPolicy safering.RecoveryPolicy
	// StallTimeout is how long a flow may hold submitted-but-undelivered
	// replies without progress before it is shed (the watchdog's aging
	// rule, safering.Aging: observing our own progress counter places no
	// new trust in the tenant). Zero disables stall-shedding.
	StallTimeout time.Duration
	// Clock supplies time for stall aging and admission checks; nil
	// means time.Now. The chaos harness injects its fake clock here and
	// in TenantPolicy.Clock, then drives PollStalls directly.
	Clock func() time.Time
	// Handler processes tenant messages; nil means EchoHandler.
	Handler Handler
	// Bank receives per-tenant attribution (frames, drops, evictions,
	// latency); nil meters nothing. Tenant ctls crypto costs land on the
	// same per-tenant meters.
	Bank *platform.TenantBank
}

// handshakeTimeout bounds hello+handshake on a new flow. Without it a
// dribbling client would pin accept goroutines.
const handshakeTimeout = 5 * time.Second

// Gateway is a multi-tenant ctls-terminating relay: it accepts tenant
// flows from a listener, authenticates each against its per-tenant key,
// contains per-tenant faults (backoff, shedding, sticky eviction) and
// hands decrypted messages to the Handler.
type Gateway struct {
	cfg     Config
	clock   func() time.Time
	handler Handler
	tenants map[TenantID]*tenant

	mu      sync.Mutex
	ls      []*tcp.Listener
	serving sync.WaitGroup
	stop    chan struct{}
	stopped bool
}

// New builds a gateway from cfg.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Master) == 0 {
		return nil, fmt.Errorf("gateway: empty master secret")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("gateway: no tenants provisioned")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Handler == nil {
		cfg.Handler = EchoHandler
	}
	pol := cfg.TenantPolicy
	if pol.Clock == nil {
		pol.Clock = cfg.Clock
	}
	if pol.DeathBudget <= 0 {
		pol.DeathBudget = 4
	}
	// Handshake quarantine: same backoff shape, but a budget no realistic
	// run exhausts — failed handshakes are unauthenticated and must never
	// become an eviction path (see tenant.handshakeFault).
	hsPol := pol
	hsPol.DeathBudget = 1 << 30

	g := &Gateway{
		cfg:     cfg,
		clock:   cfg.Clock,
		handler: cfg.Handler,
		tenants: make(map[TenantID]*tenant, len(cfg.Tenants)),
		stop:    make(chan struct{}),
	}
	for i, id := range cfg.Tenants {
		if id == 0 {
			return nil, fmt.Errorf("gateway: tenant id 0 is reserved")
		}
		if _, dup := g.tenants[id]; dup {
			return nil, fmt.Errorf("gateway: duplicate tenant %v", id)
		}
		m := cfg.Bank.Meter(uint64(id))
		app := compartment.NewDomain(fmt.Sprintf("%v-app", id), m)
		ioDom := compartment.NewDomain(fmt.Sprintf("%v-io", id), m)
		// Seed keeps per-tenant jitter streams independent but the whole
		// run reproducible from the policy seed.
		tp, hp := pol, hsPol
		tp.Seed = pol.Seed + int64(i)*2
		hp.Seed = pol.Seed + int64(i)*2 + 1
		g.tenants[id] = &tenant{
			id:       id,
			psk:      TenantKey(cfg.Master, id),
			meter:    m,
			app:      app,
			io:       ioDom,
			gate:     compartment.NewGate(app, ioDom, m),
			faults:   safering.NewQuarantine(tp),
			hsFaults: safering.NewQuarantine(hp),
			flows:    make(map[*flow]struct{}),
		}
	}
	return g, nil
}

// Serve accepts tenant flows from l until the listener or gateway
// closes. Run it in a goroutine; multiple listeners may serve one
// gateway.
func (g *Gateway) Serve(l *tcp.Listener) {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.ls = append(g.ls, l)
	g.serving.Add(1)
	g.mu.Unlock()
	defer g.serving.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go g.handleConn(c)
	}
}

// handleConn runs one flow from hello to teardown.
func (g *Gateway) handleConn(c *tcp.Conn) {
	// Bound the unauthenticated prefix of the flow.
	c.SetReadDeadline(time.Now().Add(handshakeTimeout))

	var hello [HelloLen]byte
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		c.Close()
		return
	}
	id, err := ParseHello(hello[:])
	if err != nil {
		c.Close()
		return
	}
	t, ok := g.tenants[id]
	if !ok {
		// Unprovisioned id: no tenant state exists to charge or to burn.
		c.Close()
		return
	}
	if err := t.admissible(g.clock()); err != nil {
		t.meter.Drop(1)
		c.Close()
		return
	}

	// Terminate ctls inside the tenant's own compartment: the record
	// layer sees the shared I/O stack only through the tenant's gate.
	gc := compartment.NewConn(c, t.gate, t.app)
	sec, err := ctls.Server(gc, t.psk, t.meter)
	if err != nil {
		// Unauthenticated failure: backoff on the *claimed* id only —
		// never the sticky budget (a forged hello must not evict anyone).
		t.handshakeFault()
		gc.Close()
		return
	}
	c.SetReadDeadline(time.Time{})

	f := &flow{c: c, sec: sec, tenant: t}
	if err := t.addFlow(f, g.cfg.MaxFlows); err != nil {
		sec.Close()
		return
	}
	defer func() {
		t.dropFlow(f)
		sec.Close()
	}()
	g.relay(f)
}

// relay pumps one authenticated flow through the handler.
func (g *Gateway) relay(f *flow) {
	buf := make([]byte, ctls.MaxPlaintext)
	for {
		n, err := f.sec.Read(buf)
		if err != nil {
			return
		}
		start := g.clock()
		resp, herr := g.handler(f.tenant.id, buf[:n])
		if herr != nil {
			return
		}
		if len(resp) > 0 {
			// pending/progress bracket the write so the stall watchdog can
			// see submitted-but-undelivered work (equality-only aging).
			f.pending.Add(1)
			if _, err := f.sec.Write(resp); err != nil {
				return
			}
			f.progress.Add(1)
		}
		f.tenant.meter.Frame(1)
		f.tenant.meter.RecordLatency(g.clock().Sub(start))
	}
}

// flow is one authenticated tenant connection.
type flow struct {
	c      *tcp.Conn
	sec    *ctls.Conn
	tenant *tenant

	// pending counts replies submitted to the flow; progress counts
	// replies fully delivered. pending != progress means work is
	// outstanding and the stall watchdog ages it.
	pending  atomic.Uint64
	progress atomic.Uint64
	// age is the watchdog's aging rule over progress (PollStalls only; no
	// lock needed — polls are serialized by the poller).
	age safering.Aging

	shedOnce sync.Once
	shedErr  error
}

// shed terminates the flow abruptly: Abort wakes any writer blocked on
// the tenant's unread window, so a stalled peer cannot pin the relay
// goroutine either.
func (f *flow) shed(err error) {
	f.shedOnce.Do(func() {
		f.shedErr = err
		f.tenant.meter.Drop(1)
		f.c.Abort()
	})
}

// PollStalls runs one scan of the watchdog's aging rule (safering.Aging)
// over every live flow, shedding flows whose submitted replies made no
// progress for StallTimeout and charging each shed as an authenticated
// fault. The chaos harness calls this directly on its fake clock;
// production nodes run it from a ticker (Node wires this up).
func (g *Gateway) PollStalls() {
	if g.cfg.StallTimeout <= 0 {
		return
	}
	now := g.clock()
	for _, t := range g.tenants {
		t.mu.Lock()
		flows := make([]*flow, 0, len(t.flows))
		for f := range t.flows {
			flows = append(flows, f)
		}
		t.mu.Unlock()

		for _, f := range flows {
			p := f.progress.Load()
			if f.age.Observe(now, f.pending.Load() != p, p, g.cfg.StallTimeout) > 0 {
				// The tenant stopped draining. Shed the flow and charge the
				// fault; eviction (if the budget just died) sheds the
				// siblings too.
				f.shed(ErrTenantBackoff)
				_ = t.fault()
			}
		}
	}
}

// TenantEvicted reports whether id has been stickily evicted.
func (g *Gateway) TenantEvicted(id TenantID) bool {
	t, ok := g.tenants[id]
	return ok && t.Evicted()
}

// TenantFlows returns id's live authenticated flow count.
func (g *Gateway) TenantFlows(id TenantID) int {
	t, ok := g.tenants[id]
	if !ok {
		return 0
	}
	return t.flowCount()
}

// Close stops serving and sheds every live flow.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	ls := g.ls
	g.ls = nil
	close(g.stop)
	g.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, t := range g.tenants {
		t.mu.Lock()
		flows := make([]*flow, 0, len(t.flows))
		for f := range t.flows {
			flows = append(flows, f)
		}
		t.mu.Unlock()
		for _, f := range flows {
			f.shed(errors.New("gateway: closed"))
		}
	}
	g.serving.Wait()
}
