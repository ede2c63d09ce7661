// Package tcb accounts for the size of the confidential trusted
// computing base under each I/O design — the quantity (together with
// observability) that positions designs on Figure 5's confidentiality
// axis.
//
// A component's weight is its lines of code. For components implemented
// in this repository the weights were measured from the source tree
// (Measure regenerates them; a test asserts they stay within 5 % of the
// live count). For components that stand in for much larger
// real-world code (the application, the TLS library, a production
// TCP/IP stack) the catalog notes representative magnitudes, but
// comparisons in EXPERIMENTS.md use the self-measured values so the
// reported ratios are reproducible from this tree alone.
package tcb

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Component is one body of code that may sit inside a trust domain.
type Component struct {
	Name string
	LoC  int
	Role string
}

// Catalog weights, measured from this repository (go source lines,
// tests excluded). Regenerate with Measure; TestCatalogFresh fails when
// one drifts more than 5 % from the tree.
var (
	CompEther     = Component{"ether", 40, "Ethernet framing"}
	CompARP       = Component{"arp", 88, "ARP + neighbour cache"}
	CompIPv4      = Component{"ipv4", 236, "IPv4 + frag/reasm"}
	CompUDP       = Component{"udp", 45, "UDP"}
	CompTCP       = Component{"tcp", 1174, "TCP state machine"}
	CompNetstack  = Component{"netstack", 580, "stack glue + sockets"}
	CompSafering  = Component{"safering", 1527, "safe L2 NIC driver + generic ring engine + fail-dead recovery"}
	CompVirtio    = Component{"virtio", 655, "virtio-net driver"}
	CompNetvsc    = Component{"netvsc", 421, "netvsc driver"}
	CompCTLS      = Component{"ctls", 307, "secure channel (TLS role)"}
	CompGate      = Component{"compartment", 136, "intra-TEE gate"}
	CompTDISP     = Component{"tdisp", 344, "TEE-side TDISP/IDE driver"}
	CompBlkring   = Component{"blkring", 543, "safe block ring on the generic engine"}
	CompCryptdisk = Component{"cryptdisk", 312, "at-rest AEAD sectors + Merkle freshness"}
	CompSFS       = Component{"sfs", 325, "extent filesystem"}
	// CompNIC is the transport-neutral NIC contract and the host pump.
	// The pump runs in the host's device model, so no TEE profile counts
	// it; it is catalogued because the datapath's size claims
	// (EXPERIMENTS.md, safering + nic) are made in it.
	CompNIC = Component{"nic", 408, "NIC contract, flow steering, host pump"}

	CompApp  = Component{"app", 300, "confidential application"}
	CompShim = Component{"hostsock-shim", 120, "L5 host-socket shim"}
	// CompDeviceFW stands for the attested device's firmware, which DDA
	// places inside the trust boundary ("even trusted/attested devices
	// can be compromised, particularly as their complexity is
	// increasing"); the weight is a representative smart-NIC firmware
	// magnitude, not code in this repository.
	CompDeviceFW = Component{"device-firmware", 2200, "attested NIC firmware (representative)"}
)

// Profile is the set of components inside one trust domain.
type Profile struct {
	Name       string
	Components []Component
}

// Total returns the profile's total lines of code.
func (p Profile) Total() int {
	t := 0
	for _, c := range p.Components {
		t += c.LoC
	}
	return t
}

// Class buckets a profile the way Figure 5 labels TCB sizes.
type Class string

// Classes, smallest to largest.
const (
	ClassS  Class = "S"
	ClassM  Class = "M"
	ClassL  Class = "L"
	ClassXL Class = "XL"
)

// Class returns the size bucket (thresholds chosen so the four design
// families land in distinct buckets, mirroring Figure 5's labels:
// syscall-proxy cores and the dual-boundary core are S, the L2
// stack-in-TEE designs are L, and the full tunnel middlebox stack is XL —
// the L/XL line sits midway between the largest L2 design, l2-safering,
// and the tunnel that adds a shim and a second TLS layer to it).
func (p Profile) Class() Class {
	switch t := p.Total(); {
	case t < 1000:
		return ClassS
	case t < 2200:
		return ClassM
	case t < 4750:
		return ClassL
	default:
		return ClassXL
	}
}

func (p Profile) String() string {
	names := make([]string, len(p.Components))
	for i, c := range p.Components {
		names[i] = c.Name
	}
	sort.Strings(names)
	return fmt.Sprintf("%s: %d LoC (%s) [%s]", p.Name, p.Total(), p.Class(), strings.Join(names, " "))
}

// Measure counts non-blank, non-comment-only Go source lines (tests
// excluded) under dir. Used to regenerate the catalog weights.
func Measure(dir string) (int, error) {
	total := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "//") {
				continue
			}
			total++
		}
		return sc.Err()
	})
	return total, err
}
