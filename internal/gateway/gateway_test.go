package gateway

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"confio/internal/safering"
)

func testNode(t *testing.T, mutate func(*NodeConfig)) *Node {
	t.Helper()
	cfg := DefaultNodeConfig()
	cfg.Gateway.TenantPolicy = safering.RecoveryPolicy{
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
		JitterFrac:   0,
		DeathBudget:  2,
		BudgetWindow: time.Minute,
		Seed:         1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(n.Close)
	return n
}

func echoOnce(t *testing.T, c io.ReadWriteCloser, msg string) {
	t.Helper()
	if _, err := c.Write([]byte(msg)); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(buf) != msg {
		t.Fatalf("echo = %q, want %q", buf, msg)
	}
}

func TestMultiTenantEcho(t *testing.T) {
	n := testNode(t, nil)
	for _, id := range []TenantID{1, 2, 3} {
		c, err := n.DialTenant(id)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		echoOnce(t, c, "hello from "+id.String())
		c.Close()
	}
	// Per-tenant attribution landed on each tenant's own meter. The
	// relay counts a frame and its latency after the reply is written, so
	// the client can hold the echo before the meter moves: wait for the
	// counts first.
	for _, id := range []TenantID{1, 2, 3} {
		awaitCounted(t, n, id, 1)
		cs := n.Tb.Tenant(uint64(id))
		if cs.Frames != 1 {
			t.Errorf("%v frames = %d, want 1", id, cs.Frames)
		}
		if cs.CryptoBytes == 0 {
			t.Errorf("%v crypto bytes = 0, want > 0 (ctls on tenant meter)", id)
		}
		if cs.Evictions != 0 || cs.Drops != 0 {
			t.Errorf("%v unexpected faults: %+v", id, cs)
		}
	}
	if lat := n.Tb.TenantLatency(1); lat.Count != 1 {
		t.Errorf("tenant 1 latency count = %d, want 1", lat.Count)
	}
}

// awaitCounted waits, within a bound, until the relay has counted want
// frames and want latencies for tenant id, and returns either way: the
// caller asserts.
func awaitCounted(t *testing.T, n *Node, id TenantID, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) &&
		(n.Tb.Tenant(uint64(id)).Frames < want || uint64(n.Tb.TenantLatency(uint64(id)).Count) < want) {
		time.Sleep(time.Millisecond)
	}
}

// TestFlowKeepsOneTxBuffer: a tenant flow's replies go out through one
// transmit buffer in the tenant's I/O domain, kept for the flow's
// lifetime and grown only for a larger reply, not one buffer per reply;
// the flow's end frees it and the receive buffer.
func TestFlowKeepsOneTxBuffer(t *testing.T) {
	n := testNode(t, nil)
	tn := n.GW.tenants[1]
	c, err := n.DialTenant(1)
	if err != nil {
		t.Fatal(err)
	}
	// Every message is larger than any handshake record, so the reply
	// sizes the buffer.
	held := func(msg string) int {
		echoOnce(t, c, msg)
		return tn.io.AllocatedBytes()
	}
	big := held(strings.Repeat("b", 1000))
	if big <= 1000 {
		t.Fatalf("after a 1000-byte echo the I/O domain holds %d bytes, want one buffer larger than the reply", big)
	}
	if got := held(strings.Repeat("s", 300)); got != big {
		t.Fatalf("a smaller reply moved the I/O domain from %d to %d bytes, want it kept", big, got)
	}
	if got := held(strings.Repeat("g", 2000)); got != big+1000 {
		t.Fatalf("a reply 1000 bytes larger took the I/O domain from %d to %d bytes, want one buffer %d", big, got, big+1000)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for tn.io.AllocatedBytes()+tn.app.AllocatedBytes() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ioHeld, appHeld := tn.io.AllocatedBytes(), tn.app.AllocatedBytes(); ioHeld != 0 || appHeld != 0 {
		t.Fatalf("after the flow ended the I/O domain holds %d bytes and the app %d, want 0 and 0", ioHeld, appHeld)
	}
}

// TestTenantEchoCrossesFourTimes: the gateway side of a tenant echo
// costs the tenant's gate four crossings — the Rx the request arrives
// through and one submit of the reply into the transmit buffer the flow
// holds — the count gw-echo's modelled cost rests on. Between echoes the
// relay is parked in Rx, whose entry switch is counted and whose exit is
// not, so the count is read only once it is odd again.
func TestTenantEchoCrossesFourTimes(t *testing.T) {
	n := testNode(t, nil)
	gate := n.GW.tenants[1].gate
	c, err := n.DialTenant(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	parked := func(replies uint64) uint64 {
		t.Helper()
		awaitCounted(t, n, 1, replies)
		deadline := time.Now().Add(5 * time.Second)
		for gate.Crossings()%2 == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return gate.Crossings()
	}
	const msg = "same size every time"
	echoOnce(t, c, msg) // the first reply may size the transmit buffer
	before := parked(1)
	for i := uint64(2); i <= 6; i++ {
		echoOnce(t, c, msg)
		after := parked(i)
		if got := after - before; got != 4 {
			t.Fatalf("echo %d cost the tenant's gate %d crossings, want 4", i, got)
		}
		before = after
	}
}

// TestCloseCollectsEveryGoroutine: closing a node whose tenant left its
// flow open collects everything the node started — pumps, watchdog,
// stacks, the stall poller, the serve loop and the flow's relay. Every
// polling loop is joined before Close returns; the flow's goroutines
// follow once their connections are shed.
func TestCloseCollectsEveryGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	n, err := NewNode(DefaultNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.DialTenant(1)
	if err != nil {
		n.Close()
		t.Fatal(err)
	}
	echoOnce(t, c, "left open")
	n.Close() // c deliberately left open: the gateway's relay is parked in Read

	stacks := func() string {
		buf := make([]byte, 1<<20)
		return string(buf[:runtime.Stack(buf, true)])
	}
	for _, joined := range []string{"nic.(*Driver).run", "created by confio/internal/gateway.NewNode"} {
		s := stacks()
		for _, g := range strings.Split(s, "\n\n") {
			if strings.Contains(g, joined) && !signalled(g) {
				t.Fatalf("a goroutine matching %q outlived Close:\n%s", joined, s)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the node, %d after Close:\n%s", before, runtime.NumGoroutine(), stacks())
		}
		time.Sleep(time.Millisecond)
	}
}

// signalled reports whether the goroutine dump g is a driver loop inside
// the wg.Done that nic.(*Driver).run defers first: it has signalled the
// WaitGroup Stop waits on, so Stop may return before the goroutine does,
// and all it has left is to return.
func signalled(g string) bool {
	_, after, ok := strings.Cut(g, "sync.(*WaitGroup).Done(")
	if !ok {
		return false
	}
	// The frame's file:line, then the caller's frame.
	lines := strings.SplitN(after, "\n", 4)
	return len(lines) >= 3 && strings.HasPrefix(lines[2], "confio/internal/nic.(*Driver).run(")
}

func TestWrongKeyBacksOffWithoutEviction(t *testing.T) {
	n := testNode(t, nil)
	bad := bytes.Repeat([]byte{0x42}, 32)
	if _, err := n.DialTenantKey(2, bad); err == nil {
		t.Fatal("handshake with corrupt key succeeded")
	}
	if n.GW.TenantEvicted(2) {
		t.Fatal("handshake failure evicted the tenant (must be backoff-only)")
	}
	// The eviction budget must be untouched: a handshake failure is an
	// unauthenticated fault and only arms the handshake backoff.
	if got := n.Tb.Tenant(2).Evictions; got != 0 {
		t.Fatalf("evictions = %d after handshake failure, want 0", got)
	}
	// After the backoff clears, the real key works again.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := n.DialTenant(2)
		if err == nil {
			echoOnce(t, c, "recovered")
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant 2 never recovered from handshake backoff: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestForgedHelloDoesNotBurnVictimBudget(t *testing.T) {
	n := testNode(t, nil)
	// An attacker on the client TEE forges tenant 1's hello but cannot
	// complete the handshake (no key). Repeat past the eviction budget.
	for i := 0; i < 5; i++ {
		c, err := n.DialRaw()
		if err != nil {
			t.Fatalf("raw dial: %v", err)
		}
		c.Write(EncodeHello(1))
		c.Write([]byte("not a ctls client hello at all............"))
		buf := make([]byte, 64)
		c.Read(buf) // gateway closes; drain to observe it
		c.Close()
		time.Sleep(20 * time.Millisecond) // clear handshake backoff
	}
	if n.GW.TenantEvicted(1) {
		t.Fatal("forged hellos evicted the victim: unauthenticated faults must never burn the eviction budget")
	}
	if got := n.Tb.Tenant(1).Evictions; got != 0 {
		t.Fatalf("victim evictions = %d, want 0", got)
	}
}

func TestFloodEvictsOnlyTheFlooder(t *testing.T) {
	n := testNode(t, func(cfg *NodeConfig) { cfg.Gateway.MaxFlows = 1 })

	// A neighbor with a live flow, before and throughout the flood.
	nb, err := n.DialTenant(3)
	if err != nil {
		t.Fatalf("neighbor dial: %v", err)
	}
	defer nb.Close()
	echoOnce(t, nb, "pre-flood")

	// Tenant 1 holds its one allowed flow, then floods. Each quota
	// breach is one authenticated fault; budget 2 means the third breach
	// is sticky eviction.
	hold, err := n.DialTenant(1)
	if err != nil {
		t.Fatalf("hold dial: %v", err)
	}
	defer hold.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !n.GW.TenantEvicted(1) {
		if time.Now().After(deadline) {
			t.Fatal("flooder never evicted")
		}
		if c, err := n.DialTenant(1); err == nil {
			// Flow refused post-handshake: first read reports the cut.
			c.Write([]byte("x"))
			buf := make([]byte, 8)
			c.Read(buf)
			c.Close()
		}
		time.Sleep(15 * time.Millisecond) // let the fault backoff clear
	}

	// Eviction is sticky and attributable.
	if _, err := n.DialTenant(1); err == nil {
		t.Fatal("evicted tenant dialed successfully")
	}
	if got := n.Tb.Tenant(1).Evictions; got != 1 {
		t.Errorf("flooder evictions = %d, want 1", got)
	}
	if n.Tb.Tenant(1).Drops == 0 {
		t.Error("flooder drops = 0, want > 0")
	}

	// The neighbor never noticed.
	echoOnce(t, nb, "post-flood")
	if n.GW.TenantEvicted(3) {
		t.Error("neighbor evicted")
	}
	if cs := n.Tb.Tenant(3); cs.Drops != 0 || cs.Evictions != 0 {
		t.Errorf("neighbor charged for the flood: %+v", cs)
	}

	// Per-tenant eviction consumed nothing from the device-wide death
	// budget: the device is alive and a reincarnation attempt is refused
	// with ErrNotDead (not ErrQuarantine/ErrBudgetExhausted).
	if dead := n.GatewayTransport().Dead(); dead != nil {
		t.Fatalf("device died during tenant eviction: %v", dead)
	}
	if _, err := n.GatewayTransport().Reincarnate(); !errors.Is(err, safering.ErrNotDead) {
		t.Fatalf("device reincarnate = %v, want ErrNotDead", err)
	}
	if deaths := n.Bank.Snapshot().Deaths; deaths != 0 {
		t.Fatalf("device deaths = %d during tenant eviction, want 0", deaths)
	}
}

func TestStalledTenantIsShedNotWedged(t *testing.T) {
	n := testNode(t, func(cfg *NodeConfig) {
		cfg.Gateway.StallTimeout = 150 * time.Millisecond
		cfg.Gateway.TenantPolicy.DeathBudget = 100 // shed, don't evict, here
	})

	nb, err := n.DialTenant(2)
	if err != nil {
		t.Fatalf("neighbor dial: %v", err)
	}
	defer nb.Close()

	// Tenant 1 writes a pile of requests and never reads a reply: its
	// receive window fills, the relay's reply write blocks, and the
	// stall watchdog must shed the flow rather than wedge the pump.
	st, err := n.DialTenant(1)
	if err != nil {
		t.Fatalf("staller dial: %v", err)
	}
	defer st.Close()
	msg := make([]byte, 8<<10)
	go func() {
		for i := 0; i < 64; i++ {
			if _, err := st.Write(msg); err != nil {
				return
			}
		}
	}()

	// Registration happens server-side after the handshake; wait for the
	// flow to appear before waiting for it to be shed.
	deadline := time.Now().Add(5 * time.Second)
	for n.GW.TenantFlows(1) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("staller flow never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for n.GW.TenantFlows(1) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled flow never shed")
		}
		// The neighbor keeps echoing while the staller ages out — the
		// shared pump is demonstrably not wedged.
		echoOnce(t, nb, "alive")
		time.Sleep(20 * time.Millisecond)
	}
	if n.Tb.Tenant(1).Drops == 0 {
		t.Error("shed flow not charged to the staller")
	}
	if cs := n.Tb.Tenant(2); cs.Drops != 0 {
		t.Errorf("neighbor charged for the stall: %+v", cs)
	}
	if n.GW.TenantEvicted(1) {
		t.Error("single stall evicted the tenant under a large budget")
	}
	echoOnce(t, nb, "still alive")
}

func TestUnknownTenantRefused(t *testing.T) {
	n := testNode(t, nil)
	if _, err := n.DialTenant(99); err == nil {
		t.Fatal("unprovisioned tenant dialed successfully")
	}
	if n.Tb.Tenant(99).Drops != 0 {
		t.Fatal("unprovisioned id grew tenant state")
	}
}

func TestParseHello(t *testing.T) {
	if id, err := ParseHello(EncodeHello(7)); err != nil || id != 7 {
		t.Fatalf("roundtrip = (%v, %v), want (7, nil)", id, err)
	}
	cases := [][]byte{
		nil,
		{},
		[]byte("CIO"),
		[]byte("CIO\x01"),
		append([]byte("XIO\x01"), make([]byte, 8)...),
		append([]byte("CIO\x01"), make([]byte, 8)...), // zero id
		append(EncodeHello(7), 0),                     // trailing byte
		bytes.Repeat([]byte{0xff}, 1<<10),
	}
	for _, b := range cases {
		if id, err := ParseHello(b); err == nil {
			t.Errorf("ParseHello(%d bytes) accepted id %v", len(b), id)
		} else if id != 0 {
			t.Errorf("ParseHello error path returned id %v, want 0", id)
		}
	}
}

func TestTenantKeysAreDistinct(t *testing.T) {
	master := []byte("m")
	k1, k2 := TenantKey(master, 1), TenantKey(master, 2)
	if bytes.Equal(k1, k2) {
		t.Fatal("distinct tenants derived the same key")
	}
	if bytes.Equal(TenantKey([]byte("other"), 1), k1) {
		t.Fatal("distinct masters derived the same key")
	}
}
