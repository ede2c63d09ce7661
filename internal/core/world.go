package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"confio/internal/compartment"
	"confio/internal/ctls"
	"confio/internal/ipv4"
	"confio/internal/netstack"
	"confio/internal/netvsc"
	"confio/internal/nic"
	"confio/internal/observe"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/simnet"
	"confio/internal/tcb"
	"confio/internal/tcp"
	"confio/internal/tdisp"
	"confio/internal/virtio"
	"confio/internal/workload"
)

// Service ops on an application connection (first byte after the ctls
// handshake).
const (
	opEcho byte = 'E'
	opBulk byte = 'B'
)

const appPort = 7443

var (
	clientIP = ipv4.Addr{10, 7, 0, 1}
	serverIP = ipv4.Addr{10, 7, 0, 2}
)

// World is one fully assembled design point: confidential client and
// server nodes, their untrusted host device models, the network, and the
// meters.
type World struct {
	ID    DesignID
	Net   *simnet.Network
	Meter *platform.Meter
	// Bank holds per-queue meters for multi-queue worlds (nil when the
	// world runs a single queue). Costs() aggregates it into the total.
	Bank *platform.MeterBank
	Obs  *observe.Meter

	queues int
	psk    []byte
	client *node
	server *node

	closers []func()
}

type node struct {
	stack *netstack.Stack
	// dual-boundary state
	gate       *compartment.Gate
	app        *compartment.Domain
	compromise func([]byte)
}

// NewWorld assembles a single-queue design point. Callers must Close it.
func NewWorld(id DesignID) (*World, error) { return NewWorldQueues(id, 1) }

// NewWorldQueues assembles a design point whose safe-ring transport runs
// N independent queues with flow steering (see nic.FlowHash). Only the
// safe-ring designs compose with multi-queue; the tunnel design wraps
// the NIC in an encryption layer that is single-queue, and the baseline
// transports model single-queue devices.
func NewWorldQueues(id DesignID, queues int) (*World, error) {
	if _, err := MetaOf(id); err != nil {
		return nil, err
	}
	if queues < 1 {
		return nil, fmt.Errorf("core: %d queues", queues)
	}
	if queues > 1 {
		switch id {
		case HostSocket, L2SafeRing, DualBoundary:
		default:
			return nil, fmt.Errorf("core: design %s does not support multi-queue", id)
		}
	}
	w := &World{
		ID:     id,
		Net:    simnet.New(),
		Meter:  &platform.Meter{},
		Obs:    observe.NewMeter(),
		queues: queues,
		psk:    []byte("attested-" + string(id) + "-psk-0123456789abcdef"),
	}

	// Wire the on-path observer: what anyone watching the network sees.
	w.Net.OnFrame(func(rec simnet.CaptureRecord) {
		if id == Tunnel {
			w.Obs.Observe(observe.ChTunnelOuter, rec.Len)
			return
		}
		w.Obs.Observe(observe.ChFrameMeta, rec.Len)
		if id != HostSocket {
			// L2 designs: the host also reads the ring descriptors —
			// informationally equivalent to the frames.
			w.Obs.Observe(observe.ChDescriptorMeta, rec.Len)
		}
	})

	var err error
	if w.client, err = w.buildNode(clientIP, 0xC1); err != nil {
		w.Close()
		return nil, err
	}
	if w.server, err = w.buildNode(serverIP, 0xC2); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.startServer(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// buildNode constructs one side's guest (or host) stack and device model.
func (w *World) buildNode(ip ipv4.Addr, macLast byte) (*node, error) {
	n := &node{}
	var guest nic.Guest
	var host nic.Host

	// The HostSocket design's NIC belongs to the untrusted host: its
	// driver costs are not confidential-side costs, so it gets no meter.
	guestMeter := w.Meter
	if w.ID == HostSocket {
		guestMeter = nil
	}

	switch w.ID {
	case HostSocket, L2SafeRing, Tunnel, DualBoundary:
		cfg := safering.DefaultConfig()
		cfg.MAC[5] = macLast
		// Liveness: a host that freezes the consumer index converts a
		// safety guarantee into a hang without this — the watchdog turns
		// the stall into a declared fail-dead (ErrStalled).
		var wd *safering.Watchdog
		if w.queues > 1 {
			// Multi-queue device: N independent ring pairs behind one
			// fail-dead latch, per-queue meters aggregated into the
			// world's cost snapshot, and an RSS-style multi-pump.
			// Both nodes charge the same bank, mirroring how single-queue
			// worlds share one w.Meter across client and server.
			var bank *platform.MeterBank
			if guestMeter != nil {
				if w.Bank == nil {
					w.Bank = platform.NewMeterBank(w.queues)
				}
				bank = w.Bank
			}
			mep, err := safering.NewMulti(cfg, w.queues, bank)
			if err != nil {
				return nil, err
			}
			guest = mep.NIC()
			mhp := safering.NewMultiHostPort(mep.SharedQueues())
			mpump := nic.StartMultiPump(mhp.HostNICs(), w.Net.NewPort())
			w.closers = append(w.closers, mpump.Stop)
			wd = safering.WatchDevice(safering.DefaultWatchdogConfig(), mep)
		} else {
			ep, err := safering.New(cfg, guestMeter)
			if err != nil {
				return nil, err
			}
			guest, host = ep.NIC(), safering.NewHostPort(ep.Shared()).NIC()
			wd = safering.NewWatchdog(safering.DefaultWatchdogConfig(), ep)
		}
		wd.Start()
		w.closers = append(w.closers, wd.Stop)

	case L2Virtio, L2VirtioHardened:
		cfg := virtio.DefaultConfig()
		cfg.MAC[5] = macLast
		if w.ID == L2VirtioHardened {
			cfg.Hardening = virtio.FullHardening()
		}
		d, dv, err := virtio.NewPair(cfg, guestMeter)
		if err != nil {
			return nil, err
		}
		guest, host = d.NIC(), dv.NIC()

	case L2Netvsc, L2NetvscHardened:
		cfg := netvsc.DefaultConfig()
		cfg.MAC[5] = macLast
		if w.ID == L2NetvscHardened {
			cfg.Hardening = netvsc.FullHardening()
		}
		d, h, err := netvsc.New(cfg, guestMeter)
		if err != nil {
			return nil, err
		}
		guest, host = d.NIC(), h.NIC()

	case DirectDevice:
		// §3.4: the NIC itself is attested and sits on the wire; the
		// TEE↔device link is IDE-protected; the host only relays opaque
		// TLPs. No host-side pump is needed — the device's firmware loop
		// runs on a driver of its own.
		id := tdisp.DeviceID(fmt.Sprintf("nic-%x", macLast))
		key := append([]byte("manufacturer-key-"), byte(macLast))
		fw := []byte("confio-nic-firmware-v1")
		dev := tdisp.NewDevice(id, key, fw, w.Net.NewPort())
		relay := &tdisp.Relay{}
		dev.Connect(relay)
		rot := &tdisp.RootOfTrust{
			Keys: map[tdisp.DeviceID][]byte{id: key},
			Good: map[tdisp.Measurement]bool{tdisp.MeasureFirmware(fw): true},
		}
		mac := [6]byte{0x02, 0, 0, 0xDD, 0, macLast}
		g, err := tdisp.Attach(dev, rot, relay, mac, 1500, w.Meter)
		if err != nil {
			return nil, err
		}
		firmware := new(nic.Driver)
		firmware.Go(dev.Loop())
		w.closers = append(w.closers, firmware.Stop)
		n.stack = netstack.New(g, ip)
		n.stack.Start()
		w.closers = append(w.closers, n.stack.Close)
		return n, nil
	}

	if w.ID == Tunnel {
		key := hkdfLikeKey(w.psk)
		tg, err := newTunnelNIC(guest, key, w.Meter)
		if err != nil {
			return nil, err
		}
		guest = tg
	}

	if host != nil { // multi-queue worlds started their pump above
		pump := nic.StartPump(host, w.Net.NewPort())
		w.closers = append(w.closers, pump.Stop)
	}

	n.stack = netstack.New(guest, ip)
	n.stack.Start()
	w.closers = append(w.closers, n.stack.Close)

	if w.ID == DualBoundary {
		n.app = compartment.NewDomain("app", w.Meter)
		ioDom := compartment.NewDomain("io", w.Meter)
		n.gate = compartment.NewGate(n.app, ioDom, w.Meter)
	}
	return n, nil
}

// hkdfLikeKey derives a 16-byte tunnel key from the world PSK.
func hkdfLikeKey(psk []byte) []byte {
	key := make([]byte, 16)
	for i, b := range psk {
		key[i%16] ^= b + byte(i)
	}
	return key
}

// wrap applies the design's L5 boundary to a raw TCP connection.
func (w *World) wrap(n *node, c *tcp.Conn) io.ReadWriteCloser {
	switch w.ID {
	case HostSocket:
		return newShimConn(c, w.Meter, w.Obs)
	case DualBoundary:
		var rw io.ReadWriteCloser = c
		if n.compromise != nil {
			rw = breachedConn{c, n.compromise}
		}
		return compartment.NewConn(rw, n.gate, n.app)
	default:
		return c
	}
}

// startServer runs the accept loop and per-connection service.
func (w *World) startServer() error {
	l, err := w.server.stack.Listen(appPort, 16)
	if err != nil {
		return err
	}
	w.closers = append(w.closers, l.Close)
	if w.ID == HostSocket {
		w.Obs.Observe(observe.ChSocketMeta, 0) // listener registration
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go w.serve(c)
		}
	}()
	return nil
}

func (w *World) serve(c *tcp.Conn) {
	// Bound the handshake: a tampering stack can otherwise corrupt record
	// framing so both sides wait forever for bytes that never come.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	base := w.wrap(w.server, c)
	sec, err := ctls.Server(base, w.psk, w.Meter)
	if err != nil {
		base.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	defer sec.Close()

	var op [1]byte
	if _, err := io.ReadFull(sec, op[:]); err != nil {
		return
	}
	switch op[0] {
	case opEcho:
		buf := make([]byte, 64<<10)
		for {
			n, err := sec.Read(buf)
			if err != nil {
				return
			}
			if _, err := sec.Write(buf[:n]); err != nil {
				return
			}
		}
	case opBulk:
		var hdr [8]byte
		if _, err := io.ReadFull(sec, hdr[:]); err != nil {
			return
		}
		total := int64(binary.BigEndian.Uint64(hdr[:]))
		if _, err := workload.BulkRecv(sec, total); err != nil {
			return
		}
		sec.Write([]byte{1}) // ack
	}
}

// DialApp opens a secure application connection to the server through
// the design's full path.
func (w *World) DialApp() (io.ReadWriteCloser, error) {
	c, err := w.client.stack.Dial(serverIP, appPort, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("core: %s dial: %w", w.ID, err)
	}
	if w.ID == HostSocket {
		w.Obs.Observe(observe.ChSocketMeta, 0)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	base := w.wrap(w.client, c)
	sec, err := ctls.Client(base, w.psk, w.Meter)
	if err != nil {
		base.Close()
		return nil, fmt.Errorf("core: %s handshake: %w", w.ID, err)
	}
	c.SetReadDeadline(time.Time{})
	return sec, nil
}

// RunEcho performs n request/response exchanges of size bytes.
func (w *World) RunEcho(n, size int) (workload.Result, error) {
	conn, err := w.DialApp()
	if err != nil {
		return workload.Result{}, err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{opEcho}); err != nil {
		return workload.Result{}, err
	}
	return workload.EchoClient(conn, n, size)
}

// RunBulk streams total bytes to the server in chunk-sized writes and
// waits for the server's acknowledgment, so the measured duration covers
// end-to-end delivery.
func (w *World) RunBulk(total int64, chunk int) (workload.Result, error) {
	conn, err := w.DialApp()
	if err != nil {
		return workload.Result{}, err
	}
	defer conn.Close()
	var hdr [9]byte
	hdr[0] = opBulk
	binary.BigEndian.PutUint64(hdr[1:], uint64(total))
	if _, err := conn.Write(hdr[:]); err != nil {
		return workload.Result{}, err
	}
	start := time.Now()
	res, err := workload.BulkSend(conn, total, chunk)
	if err != nil {
		return res, err
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil || ack[0] != 1 {
		return res, fmt.Errorf("core: bulk ack: %w", err)
	}
	res.Duration = time.Since(start)
	return res, nil
}

// CompromiseIOStack models a fully breached I/O compartment on the
// client side of a dual-boundary world: from now on the stack mutates
// every byte stream it carries (the strongest thing a compromised
// compartment can do to data, short of dropping it). The paper's claim
// under test: this "only results in increased observability" — the L5
// secure channel refuses everything the breached stack touches, so no
// corrupted or forged data ever reaches the application.
func (w *World) CompromiseIOStack(mutate func([]byte)) error {
	if w.ID != DualBoundary {
		return fmt.Errorf("core: %s has no I/O compartment to compromise", w.ID)
	}
	w.client.compromise = mutate
	return nil
}

// RunMix drives n echo exchanges with the middlebox-flavoured size
// distribution (mostly small control messages, periodic MTU-scale and
// bulk bursts) that the paper's introduction motivates.
func (w *World) RunMix(n int) (workload.Result, error) {
	conn, err := w.DialApp()
	if err != nil {
		return workload.Result{}, err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{opEcho}); err != nil {
		return workload.Result{}, err
	}
	res := workload.Result{}
	start := time.Now()
	for i, size := range workload.MixSizes(n) {
		req := workload.Payload(uint64(i), size)
		t0 := time.Now()
		if _, err := conn.Write(req); err != nil {
			return res, err
		}
		buf := make([]byte, size)
		if _, err := io.ReadFull(conn, buf); err != nil {
			return res, err
		}
		res.Latencies = append(res.Latencies, time.Since(t0))
		if err := workload.Verify(uint64(i), buf); err != nil {
			return res, err
		}
		res.Ops++
		res.Bytes += int64(2 * size)
	}
	res.Duration = time.Since(start)
	return res, nil
}

// Costs snapshots the confidential-side cost meter, aggregating the
// per-queue bank of a multi-queue world into the total.
func (w *World) Costs() platform.Costs { return w.Meter.Snapshot().Add(w.Bank.Snapshot()) }

// Queues returns the transport queue count (1 for single-queue worlds).
func (w *World) Queues() int { return w.queues }

// QueueCosts returns per-queue cost snapshots (nil for single-queue or
// unmetered worlds).
func (w *World) QueueCosts() []platform.Costs { return w.Bank.QueueSnapshots() }

// Observability reports what the host has seen so far.
func (w *World) Observability() observe.Report { return w.Obs.Report() }

// TCB returns the design's core and TEE-total profiles.
func (w *World) TCB() (core, teeTotal tcb.Profile) {
	return TCBOf(w.ID)
}

// Close tears the world down.
func (w *World) Close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
	w.closers = nil
}
