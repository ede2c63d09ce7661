// Package core is the paper's contribution assembled into runnable
// systems: it builds complete confidential I/O "worlds" — a confidential
// client and server, their untrusted hosts, and the network between
// them — for every design point in Figure 5, and runs workloads over
// them while metering performance costs, TCB size, observability, and
// attack resilience.
//
// The designs:
//
//   - HostSocket: the enclave library-OS position (Graphene, SCONE, CCF).
//     The TCP/IP stack runs on the untrusted host; every socket call
//     crosses the TEE boundary; the host sees call patterns and socket
//     metadata (observability XL) but the confidential TCB is tiny.
//
//   - L2Virtio / L2VirtioHardened, L2Netvsc / L2NetvscHardened: the
//     lift-and-shift confidential-VM position. The full network stack
//     plus a legacy paravirtual driver live in the TEE; hardening is
//     retrofitted (or not) per §2.5.
//
//   - L2SafeRing: the paper's safe-by-construction L2 interface under a
//     monolithic TEE (the ShieldBox/rkt-io position with a safe driver).
//
//   - Tunnel: the LightBox position — L2 frames encrypted and padded
//     into a constant-size tunnel, hiding traffic shape from the host at
//     the cost of the largest TCB and per-frame crypto.
//
//   - DualBoundary: this work (§3.1–3.2). The safe ring at L2 as a
//     strong host boundary, the network stack demoted into an I/O
//     compartment, and a lightweight single-distrust gate plus mandatory
//     secure channel at L5. Core TCB S, observability M, performance
//     close to L2SafeRing.
//
// In every design the application traffic itself is protected end to end
// with the ctls secure channel — the paper's mandatory-TLS rule — so the
// comparison isolates the I/O boundary, not application hygiene.
package core

import (
	"fmt"

	"confio/internal/tcb"
)

// DesignID names one confidential I/O design point.
type DesignID string

// The design points of Figure 5 (plus the hardened baseline variants of
// §2.5).
const (
	HostSocket       DesignID = "hostsocket"
	L2Virtio         DesignID = "l2-virtio"
	L2VirtioHardened DesignID = "l2-virtio-hardened"
	L2Netvsc         DesignID = "l2-netvsc"
	L2NetvscHardened DesignID = "l2-netvsc-hardened"
	L2SafeRing       DesignID = "l2-safering"
	Tunnel           DesignID = "tunnel"
	DualBoundary     DesignID = "dual-boundary"
	DirectDevice     DesignID = "direct-device"
)

// Designs lists every design point in presentation order.
func Designs() []DesignID {
	return []DesignID{
		HostSocket,
		L2Virtio, L2VirtioHardened,
		L2Netvsc, L2NetvscHardened,
		L2SafeRing, Tunnel, DualBoundary, DirectDevice,
	}
}

// Meta describes a design point.
type Meta struct {
	ID          DesignID
	Paper       string // which prior system family it stands for
	Boundary    string // where P1 places the trust boundary
	Description string
}

var metas = map[DesignID]Meta{
	HostSocket: {HostSocket, "Graphene / SCONE / CCF", "L5 (host sockets)",
		"host runs the network stack; every socket op crosses the TEE boundary"},
	L2Virtio: {L2Virtio, "lift-and-shift CVM", "L2 (virtio, unhardened)",
		"legacy virtio driver trusting the host device"},
	L2VirtioHardened: {L2VirtioHardened, "hardened CVM (§2.5)", "L2 (virtio, retrofitted)",
		"virtio with the Figure-4 retrofits (checks, init, copies, races, restrict)"},
	L2Netvsc: {L2Netvsc, "lift-and-shift CVM (Hyper-V)", "L2 (netvsc, unhardened)",
		"legacy vmbus channel trusting the host"},
	L2NetvscHardened: {L2NetvscHardened, "hardened CVM (§2.5)", "L2 (netvsc, retrofitted)",
		"netvsc with the Figure-3 retrofits"},
	L2SafeRing: {L2SafeRing, "ShieldBox / rkt-io position, safe interface", "L2 (safe ring)",
		"the paper's safe-by-construction ring, stack in the monolithic TEE"},
	Tunnel: {Tunnel, "LightBox", "L2 in TLS tunnel",
		"frames encrypted and padded to constant size; host sees only the tunnel"},
	DualBoundary: {DualBoundary, "this work", "L2 strong + L5 compartment",
		"safe ring at L2; stack in an I/O compartment behind a single-distrust gate at L5"},
	DirectDevice: {DirectDevice, "TDISP / TEE-I/O (§3.4)", "L2 (attested device, IDE link)",
		"SPDM-attested NIC joins the TCB; the PCIe link is AEAD-protected; no driver hardening needed"},
}

// MetaOf returns a design's metadata.
func MetaOf(id DesignID) (Meta, error) {
	m, ok := metas[id]
	if !ok {
		return Meta{}, fmt.Errorf("core: unknown design %q", id)
	}
	return m, nil
}

// tunnel shim component weight (the encrypt/pad layer in tunnel.go).
var compTunnel = tcb.Component{Name: "tunnel-shim", LoC: 160, Role: "L2-in-TLS encapsulation"}

var (
	stackComponents = []tcb.Component{
		tcb.CompEther, tcb.CompARP, tcb.CompIPv4, tcb.CompTCP, tcb.CompNetstack,
	}
	appCore = []tcb.Component{tcb.CompApp, tcb.CompCTLS}
)

func prof(name string, comps ...[]tcb.Component) tcb.Profile {
	var all []tcb.Component
	for _, c := range comps {
		all = append(all, c...)
	}
	return tcb.Profile{Name: name, Components: all}
}

// TCBOf returns the two trust-domain profiles of a design: core is the
// code whose compromise directly exposes application data; teeTotal is
// everything running inside the TEE (for the dual boundary these differ
// — that is the point).
func TCBOf(id DesignID) (core, teeTotal tcb.Profile) {
	switch id {
	case HostSocket:
		p := prof(string(id), appCore, []tcb.Component{tcb.CompShim})
		return p, p
	case L2Virtio, L2VirtioHardened:
		p := prof(string(id), appCore, stackComponents, []tcb.Component{tcb.CompVirtio})
		return p, p
	case L2Netvsc, L2NetvscHardened:
		p := prof(string(id), appCore, stackComponents, []tcb.Component{tcb.CompNetvsc})
		return p, p
	case L2SafeRing:
		p := prof(string(id), appCore, stackComponents, []tcb.Component{tcb.CompSafering})
		return p, p
	case Tunnel:
		p := prof(string(id), appCore, stackComponents,
			[]tcb.Component{tcb.CompSafering, compTunnel, tcb.CompCTLS})
		return p, p
	case DualBoundary:
		core := prof(string(id)+"-core", appCore, []tcb.Component{tcb.CompGate, tcb.CompGateConn})
		total := prof(string(id)+"-tee", appCore,
			[]tcb.Component{tcb.CompGate, tcb.CompGateConn, tcb.CompSafering}, stackComponents)
		return core, total
	case DirectDevice:
		// The attested device's firmware joins the trust boundary — the
		// §3.4 trade-off in numbers.
		p := prof(string(id), appCore, stackComponents,
			[]tcb.Component{tcb.CompTDISP, tcb.CompDeviceFW})
		return p, p
	default:
		return tcb.Profile{Name: "unknown"}, tcb.Profile{Name: "unknown"}
	}
}
