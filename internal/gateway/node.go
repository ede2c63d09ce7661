package gateway

import (
	"fmt"
	"io"
	"time"

	"confio/internal/ctls"
	"confio/internal/ipv4"
	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/simnet"
)

// Port is the gateway's well-known listen port.
const Port = 8443

var (
	gwIP     = ipv4.Addr{10, 9, 0, 1}
	clientIP = ipv4.Addr{10, 9, 0, 2}
)

// NodeConfig assembles a full gateway deployment testbed. The gateway's
// device always runs doorbells plus event-idx suppression, the
// notification-efficient production path.
type NodeConfig struct {
	// Queues is the gateway's safe-ring queue count.
	Queues int
	// Gateway is the gateway configuration (Bank defaults to a fresh
	// TenantBank when nil so per-tenant attribution is always on).
	Gateway Config
}

// DefaultNodeConfig returns the production-shaped deployment: 4 queues,
// 3 tenants, flood and stall containment armed.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		Queues: 4,
		Gateway: Config{
			Master:       []byte("attested-gateway-master-0123456789abcdef"),
			Tenants:      []TenantID{1, 2, 3},
			MaxFlows:     8,
			StallTimeout: 500 * time.Millisecond,
		},
	}
}

// Node is one fully assembled gateway deployment on a simulated
// network: the gateway TEE (multi-queue safe ring, EventIdx, netstack,
// the Gateway itself) plus a client TEE tenants dial from. It is the
// substrate the gateway benchmarks, chaos scenarios and attack matrix
// all drive.
type Node struct {
	Net  *simnet.Network
	GW   *Gateway
	Bank *platform.MeterBank  // per-queue device meters (gateway side)
	Tb   *platform.TenantBank // per-tenant attribution

	cfg         NodeConfig
	gwStack     *netstack.Stack
	clientStack *netstack.Stack
	gwMep       *safering.MultiEndpoint
	closers     []func()
}

// NewNode assembles a deployment from cfg. Callers must Close it.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Queues < 1 {
		cfg.Queues = 1
	}
	if cfg.Gateway.Bank == nil {
		cfg.Gateway.Bank = platform.NewTenantBank()
	}
	n := &Node{Net: simnet.New(), cfg: cfg, Tb: cfg.Gateway.Bank}

	// Gateway side: multi-queue safe ring behind one fail-dead latch,
	// per-queue metering, RSS-style multi-pump, progress watchdog.
	rcfg := safering.DefaultConfig()
	rcfg.MAC[5] = 0xA1
	rcfg.Notify, rcfg.EventIdx = true, true
	n.Bank = platform.NewMeterBank(cfg.Queues)
	mep, err := safering.NewMulti(rcfg, cfg.Queues, n.Bank)
	if err != nil {
		return nil, err
	}
	n.gwMep = mep
	mhp := safering.NewMultiHostPort(mep.SharedQueues())
	mpump := nic.StartMultiPump(mhp.HostNICs(), n.Net.NewPort())
	n.closers = append(n.closers, mpump.Stop)
	wd := safering.WatchDevice(safering.DefaultWatchdogConfig(), mep)
	wd.Start()
	n.closers = append(n.closers, wd.Stop)
	n.gwStack = netstack.New(mep.NIC(), gwIP)
	n.gwStack.Start()
	n.closers = append(n.closers, n.gwStack.Close)

	// Client side: its own single-queue safe ring (the tenants' transport
	// is not what is under test; the gateway's is).
	ccfg := safering.DefaultConfig()
	ccfg.MAC[5] = 0xC2
	cep, err := safering.New(ccfg, nil)
	if err != nil {
		n.Close()
		return nil, err
	}
	cpump := nic.StartPump(safering.NewHostPort(cep.Shared()).NIC(), n.Net.NewPort())
	n.closers = append(n.closers, cpump.Stop)
	n.clientStack = netstack.New(cep.NIC(), clientIP)
	n.clientStack.Start()
	n.closers = append(n.closers, n.clientStack.Close)

	gw, err := New(cfg.Gateway)
	if err != nil {
		n.Close()
		return nil, err
	}
	n.GW = gw
	l, err := n.gwStack.Listen(Port, 64)
	if err != nil {
		n.Close()
		return nil, err
	}
	go gw.Serve(l)
	n.closers = append(n.closers, gw.Close)

	// Stall poller: only when running on the real clock — chaos runs
	// inject a fake clock and drive PollStalls themselves.
	if cfg.Gateway.StallTimeout > 0 && cfg.Gateway.Clock == nil {
		stalls := new(nic.Driver)
		stalls.Go(nic.Every(cfg.Gateway.StallTimeout/4, gw.PollStalls))
		n.closers = append(n.closers, stalls.Stop)
	}
	return n, nil
}

// DialRaw opens an unauthenticated transport connection to the gateway
// (the attack harness writes forged hellos and junk over it).
func (n *Node) DialRaw() (io.ReadWriteCloser, error) {
	return n.clientStack.Dial(gwIP, Port, 10*time.Second)
}

// DialTenant opens an authenticated flow as tenant id: hello, then the
// ctls handshake under the tenant's derived key. The returned conn
// carries the tenant's plaintext messages.
func (n *Node) DialTenant(id TenantID) (io.ReadWriteCloser, error) {
	return n.dial(id, TenantKey(n.cfg.Gateway.Master, id))
}

// DialTenantKey is DialTenant with an explicit key — the chaos harness
// uses a corrupted key to model a tenant whose provisioning went wrong.
func (n *Node) DialTenantKey(id TenantID, key []byte) (io.ReadWriteCloser, error) {
	return n.dial(id, key)
}

func (n *Node) dial(id TenantID, key []byte) (io.ReadWriteCloser, error) {
	c, err := n.clientStack.Dial(gwIP, Port, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("gateway: dial: %w", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write(EncodeHello(id)); err != nil {
		c.Close()
		return nil, err
	}
	sec, err := ctls.Client(c, key, nil)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("gateway: %v handshake: %w", id, err)
	}
	c.SetReadDeadline(time.Time{})
	return &tenantConn{Conn: sec, raw: c}, nil
}

// tenantConn closes the transport under the record layer too.
type tenantConn struct {
	*ctls.Conn
	raw io.Closer
}

func (t *tenantConn) Close() error {
	err := t.Conn.Close()
	t.raw.Close()
	return err
}

// GatewayTransport exposes the gateway's multi-queue endpoint (the
// attack harness reaches through it to play the malicious host).
func (n *Node) GatewayTransport() *safering.MultiEndpoint { return n.gwMep }

// GatewayStack exposes the gateway-side netstack (degradation checks).
func (n *Node) GatewayStack() *netstack.Stack { return n.gwStack }

// Close tears the deployment down.
func (n *Node) Close() {
	for i := len(n.closers) - 1; i >= 0; i-- {
		n.closers[i]()
	}
	n.closers = nil
}
