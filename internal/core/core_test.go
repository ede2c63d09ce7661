package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"confio/internal/compartment"
	"confio/internal/observe"
	"confio/internal/platform"
	"confio/internal/tcb"
	"confio/internal/workload"
)

func TestMetaCatalog(t *testing.T) {
	for _, id := range Designs() {
		m, err := MetaOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.Paper == "" || m.Boundary == "" || m.Description == "" {
			t.Fatalf("incomplete meta for %s: %+v", id, m)
		}
	}
	if _, err := MetaOf("no-such-design"); err == nil {
		t.Fatal("unknown design accepted")
	}
	if _, err := NewWorld("no-such-design"); err == nil {
		t.Fatal("unknown design world built")
	}
}

func TestTCBProfilesMatchFigure5(t *testing.T) {
	wantCore := map[DesignID]tcb.Class{
		HostSocket:       tcb.ClassS,
		L2Virtio:         tcb.ClassL,
		L2VirtioHardened: tcb.ClassL,
		L2Netvsc:         tcb.ClassL,
		L2NetvscHardened: tcb.ClassL,
		L2SafeRing:       tcb.ClassL,
		Tunnel:           tcb.ClassXL,
		DualBoundary:     tcb.ClassS,
		DirectDevice:     tcb.ClassXL, // the attested device joins the TCB
	}
	for id, want := range wantCore {
		coreP, total := TCBOf(id)
		if got := coreP.Class(); got != want {
			t.Errorf("%s core TCB class = %s (%d LoC), want %s", id, got, coreP.Total(), want)
		}
		if total.Total() < coreP.Total() {
			t.Errorf("%s: TEE total %d < core %d", id, total.Total(), coreP.Total())
		}
	}
	// The dual boundary's core is a small fraction of its TEE total —
	// the compromise-the-stack-gains-only-observability claim.
	coreP, total := TCBOf(DualBoundary)
	if coreP.Total()*3 > total.Total() {
		t.Fatalf("dual core %d not ≪ TEE total %d", coreP.Total(), total.Total())
	}
}

func TestEchoAcrossEveryDesign(t *testing.T) {
	for _, id := range Designs() {
		t.Run(string(id), func(t *testing.T) {
			w, err := NewWorld(id)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			res, err := w.RunEcho(20, 512)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 20 {
				t.Fatalf("ops = %d", res.Ops)
			}
		})
	}
}

func TestBulkAcrossEveryDesign(t *testing.T) {
	for _, id := range Designs() {
		t.Run(string(id), func(t *testing.T) {
			w, err := NewWorld(id)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			res, err := w.RunBulk(256<<10, 16<<10)
			if err != nil {
				t.Fatal(err)
			}
			if res.Bytes != 256<<10 {
				t.Fatalf("bytes = %d", res.Bytes)
			}
		})
	}
}

func TestObservabilityClassesMatchFigure5(t *testing.T) {
	want := map[DesignID]observe.Class{
		HostSocket:   observe.ClassXL,
		L2Virtio:     observe.ClassM,
		L2SafeRing:   observe.ClassM,
		Tunnel:       observe.ClassS,
		DualBoundary: observe.ClassM,
		DirectDevice: observe.ClassM, // TLP sizes ≈ network metadata
	}
	for id, wantClass := range want {
		t.Run(string(id), func(t *testing.T) {
			w, err := NewWorld(id)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if _, err := w.RunEcho(10, 256); err != nil {
				t.Fatal(err)
			}
			rep := w.Observability()
			if got := rep.Class(); got != wantClass {
				t.Fatalf("obs class = %s, want %s (%s)", got, wantClass, rep)
			}
		})
	}
}

func TestTunnelHidesFrameSizes(t *testing.T) {
	w, err := NewWorld(Tunnel)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.RunEcho(10, 999); err != nil {
		t.Fatal(err)
	}
	rep := w.Observability()
	if !rep.HidesTraffic() {
		t.Fatalf("tunnel leaked frame metadata: %s", rep)
	}
	// All tunnel frames have identical outer size.
	sizes := map[int]bool{}
	for _, rec := range w.Net.Capture() {
		sizes[rec.Len] = true
	}
	// Capture was not enabled — use the byte/count ratio instead.
	if rep.Counts[observe.ChTunnelOuter] > 0 {
		mean := rep.Bytes[observe.ChTunnelOuter] / rep.Counts[observe.ChTunnelOuter]
		if mean < 1500 {
			t.Fatalf("tunnel frames not padded: mean %d", mean)
		}
	}
	_ = sizes
}

func TestCostProfilesDifferentiateDesigns(t *testing.T) {
	costs := map[DesignID]struct {
		tee, gate uint64
	}{}
	for _, id := range []DesignID{HostSocket, L2SafeRing, DualBoundary} {
		w, err := NewWorld(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.RunEcho(50, 256); err != nil {
			w.Close()
			t.Fatal(err)
		}
		c := w.Costs()
		costs[id] = struct{ tee, gate uint64 }{c.TEECrossings, c.GateCrossings}
		w.Close()
	}
	if costs[HostSocket].tee == 0 {
		t.Fatal("host-socket design crossed the TEE zero times")
	}
	if costs[L2SafeRing].tee != 0 {
		t.Fatalf("polling safe ring should cross the TEE zero times, got %d", costs[L2SafeRing].tee)
	}
	if costs[DualBoundary].gate == 0 {
		t.Fatal("dual boundary never crossed its gate")
	}
	if costs[DualBoundary].tee != 0 {
		t.Fatalf("dual boundary crossed the TEE %d times", costs[DualBoundary].tee)
	}
	if costs[HostSocket].tee < 100 {
		t.Fatalf("host-socket crossings suspiciously low: %d", costs[HostSocket].tee)
	}
}

func TestHardeningCostsVisible(t *testing.T) {
	copies := map[DesignID]uint64{}
	for _, id := range []DesignID{L2Virtio, L2VirtioHardened} {
		w, err := NewWorld(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.RunEcho(30, 1024); err != nil {
			w.Close()
			t.Fatal(err)
		}
		copies[id] = w.Costs().BytesCopied
		w.Close()
	}
	if copies[L2VirtioHardened] <= copies[L2Virtio] {
		t.Fatalf("hardening should add copies: %d vs %d", copies[L2VirtioHardened], copies[L2Virtio])
	}
}

func TestTunnelPaysCrypto(t *testing.T) {
	crypto := map[DesignID]uint64{}
	for _, id := range []DesignID{L2SafeRing, Tunnel} {
		w, err := NewWorld(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.RunEcho(20, 512); err != nil {
			w.Close()
			t.Fatal(err)
		}
		crypto[id] = w.Costs().CryptoBytes
		w.Close()
	}
	if crypto[Tunnel] <= crypto[L2SafeRing] {
		t.Fatalf("tunnel should pay extra crypto: %d vs %d", crypto[Tunnel], crypto[L2SafeRing])
	}
}

func TestDesignStringing(t *testing.T) {
	coreP, _ := TCBOf(DualBoundary)
	if !strings.Contains(coreP.String(), "compartment") {
		t.Fatalf("profile string: %s", coreP)
	}
}

// TestCompromisedIOStackConfined is the ternary-trust claim end to end:
// a fully breached I/O compartment cannot feed the application corrupted
// data — every tampered byte stream dies at the L5 secure channel.
func TestCompromisedIOStackConfined(t *testing.T) {
	w, err := NewWorld(DualBoundary)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Sanity: intact stack works.
	if _, err := w.RunEcho(3, 128); err != nil {
		t.Fatal(err)
	}

	if err := w.CompromiseIOStack(func(p []byte) {
		p[len(p)/2] ^= 0x01 // the breached stack flips one bit per burst
	}); err != nil {
		t.Fatal(err)
	}

	// The attempt now fails cleanly — handshake or record auth — and
	// never yields wrong bytes (RunEcho verifies every reply byte, so a
	// nil error here would mean corrupted data was accepted).
	if _, err := w.RunEcho(3, 128); err == nil {
		t.Fatal("application accepted data through a compromised stack")
	}

	// Only the CLIENT stack is breached; the server and the design stay
	// sound: restoring the stack restores service.
	if err := w.CompromiseIOStack(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunEcho(3, 128); err != nil {
		t.Fatalf("service did not recover after remediation: %v", err)
	}
}

func TestCompromiseRequiresDualBoundary(t *testing.T) {
	w, err := NewWorld(L2SafeRing)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.CompromiseIOStack(func([]byte) {}); err == nil {
		t.Fatal("monolithic design claims an I/O compartment")
	}
}

// TestMixWorkload exercises the middlebox-flavoured size mix the intro
// motivates (small control messages, MTU bursts, bulk spikes).
func TestMixWorkload(t *testing.T) {
	w, err := NewWorld(DualBoundary)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	res, err := w.RunMix(32)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 32 {
		t.Fatalf("ops = %d", res.Ops)
	}
}

func TestMultiQueueEchoWorld(t *testing.T) {
	for _, id := range []DesignID{HostSocket, L2SafeRing, DualBoundary} {
		t.Run(string(id), func(t *testing.T) {
			w, err := NewWorldQueues(id, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if w.Queues() != 4 {
				t.Fatalf("Queues() = %d", w.Queues())
			}
			res, err := w.RunEcho(20, 512)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 20 {
				t.Fatalf("ops = %d", res.Ops)
			}
			// The per-queue meters must have seen the traffic: the
			// aggregated device snapshot carries the datapath costs.
			if id != HostSocket {
				qc := w.QueueCosts()
				if len(qc) != 4 {
					t.Fatalf("QueueCosts() = %d entries", len(qc))
				}
				total := platform.Costs{}
				for _, c := range qc {
					total = total.Add(c)
				}
				if total.IndexPublishes == 0 {
					t.Fatal("no index publishes recorded across queues")
				}
			}
		})
	}
}

func TestMultiQueueRejectsIncompatibleDesigns(t *testing.T) {
	for _, id := range []DesignID{Tunnel, L2Virtio, L2VirtioHardened, L2Netvsc} {
		if _, err := NewWorldQueues(id, 4); err == nil {
			t.Errorf("NewWorldQueues(%s, 4) should fail: design is single-queue", id)
		}
	}
	if _, err := NewWorldQueues(L2SafeRing, 0); err == nil {
		t.Error("NewWorldQueues(_, 0) should fail")
	}
}

// TestCloseCollectsServeGoroutines: closing a world whose client left a
// connection open must still wake the server goroutine blocked reading
// it — stopping the stacks aborts their connections — so nothing the
// world started outlives Close.
func TestCloseCollectsServeGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	w, err := NewWorld(DualBoundary)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := w.DialApp()
	if err != nil {
		w.Close()
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{opEcho}); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.EchoClient(conn, 1, 256); err != nil {
		t.Fatal(err)
	}
	w.Close() // conn deliberately left open: serve is parked in Read

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the world, %d after Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGateConnKeepsOneTxBuffer: a dual-boundary connection allocates its
// I/O-domain transmit buffer on the first Write, keeps it — replaced only
// by a larger one when a larger Write comes — at the same four gate
// crossings per Write (buffer round trip + submit), and returns it, with
// the receive buffer, on Close.
func TestGateConnKeepsOneTxBuffer(t *testing.T) {
	w, err := NewWorld(DualBoundary)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c, err := w.client.stack.Dial(serverIP, appPort, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	app, ioDom := compartment.NewDomain("app", nil), compartment.NewDomain("io", nil)
	gate := compartment.NewGate(app, ioDom, nil)
	g := newGateConn(c, gate, app)
	if got := ioDom.AllocatedBytes(); got != 0 {
		t.Fatalf("I/O domain holds %d bytes before the first Write: the buffer must not be allocated at connect", got)
	}
	var seen [][]byte
	g.compromised = func(p []byte) { seen = append(seen, append([]byte(nil), p...)) }
	largest := 0
	for i, msg := range []string{"first", "second, longer than the first", "3"} {
		largest = max(largest, len(msg))
		before := gate.Crossings()
		if _, err := g.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		if got := gate.Crossings() - before; got != 4 {
			t.Fatalf("write %d took %d gate crossings, want 4", i, got)
		}
		if got := ioDom.AllocatedBytes(); got != largest {
			t.Fatalf("after write %d the I/O domain holds %d bytes, want one %d-byte buffer", i, got, largest)
		}
		if string(seen[i]) != msg {
			t.Fatalf("write %d handed the I/O stack %q, want %q", i, seen[i], msg)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if app.AllocatedBytes() != 0 || ioDom.AllocatedBytes() != 0 {
		t.Fatalf("after Close: app holds %d bytes, I/O holds %d, want 0 and 0", app.AllocatedBytes(), ioDom.AllocatedBytes())
	}
}
