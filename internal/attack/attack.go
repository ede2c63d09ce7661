// Package attack is the interface-vulnerability harness: it mounts the
// attack classes from the paper's threat analysis (Iago-style lies,
// double fetches, index/handle forgery, replay, notification abuse,
// control-plane TOCTOU, stale-memory leaks — §2.2's "interface
// vulnerabilities" vector) against every transport, and renders the
// resilience matrix that §3.2's safe-by-construction claims predict:
//
//   - the safe ring blocks every class structurally;
//   - the unhardened legacy transports are compromised by most classes;
//   - the retrofitted transports block what their toggles cover, at the
//     cost the benchmarks measure;
//   - and even a *successful* L2 compromise dies at the L5 secure
//     channel (the multi-stage-attack argument for the dual boundary).
//
// Verdicts are derived from observed behaviour, not asserted: an attack
// is Compromised when guest-visible integrity breaks (wrong bytes
// accepted as valid, secrets readable, frames cross-wired), Blocked when
// the guest detects it or it has no effect, and Degraded when the effect
// is indistinguishable from untrusted-network noise (which the host can
// always inject anyway).
package attack

import (
	"bytes"
	"errors"
	"fmt"
)

// Verdict classifies an attack outcome.
type Verdict string

// Verdicts.
const (
	// Blocked: detected and neutralized (fatal error or no effect).
	Blocked Verdict = "BLOCKED"
	// Degraded: undetected but bounded by what an on-path network
	// attacker could do anyway (garbage frames, drops).
	Degraded Verdict = "degraded"
	// Compromised: guest integrity or confidentiality violated.
	Compromised Verdict = "COMPROMISED"
	// NotApplicable: the transport has no such surface by construction.
	NotApplicable Verdict = "n/a"
)

// Result is one attack outcome.
type Result struct {
	Attack    string
	Transport string
	Verdict   Verdict
	Detail    string
}

func (r Result) String() string {
	return fmt.Sprintf("%-22s %-18s %-11s %s", r.Attack, r.Transport, r.Verdict, r.Detail)
}

// Scenario is one (attack, transport) experiment.
type Scenario struct {
	Attack    string
	Transport string
	Run       func() Result
}

// Attack names (matrix rows).
const (
	AtkIndexOverclaim  = "index-overclaim"
	AtkIndexRewind     = "index-rewind"
	AtkLengthLie       = "length-lie"
	AtkDoubleFetch     = "payload-double-fetch"
	AtkReplay          = "replay-completion"
	AtkForgedHandle    = "forged-handle"
	AtkNotifStorm      = "notification-storm"
	AtkEventIdxLie     = "event-idx-lie"
	AtkWakeSpam        = "wake-spam"
	AtkBlkWakeSpam     = "blk-wake-spam"
	AtkFeatureTOCTOU   = "feature-toctou"
	AtkStaleMemory     = "stale-memory-leak"
	AtkStatusCorrupt   = "status-corrupt"
	AtkMerkleSibSwap   = "merkle-sibling-swap"
	AtkSectorTransplnt = "sector-transplant"
	AtkFrontierRollbk  = "frontier-rollback"
	AtkQueueCrossKill  = "queue-cross-kill"
	AtkEpochReplay     = "epoch-replay"
	AtkReattachStorm   = "reattach-storm"
	AtkL5AfterL2Breach = "l5-after-l2-breach"
	// Tenant-boundary rows: only transports that multiplex mutually
	// distrusting tenants (the gateway) have this surface.
	AtkTenantCrossRead = "tenant-cross-read"
	AtkTenantStallNbr  = "tenant-stall-neighbor"
	AtkTenantKillNbr   = "tenant-kill-neighbor"
)

// AttackNames in matrix order.
var AttackNames = []string{
	AtkIndexOverclaim, AtkIndexRewind, AtkLengthLie, AtkDoubleFetch,
	AtkReplay, AtkForgedHandle, AtkNotifStorm, AtkEventIdxLie, AtkWakeSpam, AtkBlkWakeSpam,
	AtkFeatureTOCTOU, AtkStaleMemory, AtkStatusCorrupt, AtkMerkleSibSwap, AtkSectorTransplnt, AtkFrontierRollbk, AtkQueueCrossKill,
	AtkEpochReplay, AtkReattachStorm, AtkL5AfterL2Breach,
	AtkTenantCrossRead, AtkTenantStallNbr, AtkTenantKillNbr,
}

// TransportNames in matrix order.
var TransportNames = []string{
	"safering", "safering-revoke", "safering-mq", "safering-inline", "blkring", "virtio", "virtio-hardened", "netvsc", "netvsc-hardened", "gateway",
}

// Suite returns every scenario.
func Suite() []Scenario {
	var s []Scenario
	s = append(s, saferingScenarios()...)
	s = append(s, blkringScenarios()...)
	s = append(s, virtioScenarios()...)
	s = append(s, netvscScenarios()...)
	s = append(s, gatewayScenarios()...)
	s = append(s, crossLayerScenarios()...)
	return s
}

// RunAll executes the suite.
func RunAll() []Result {
	var out []Result
	for _, sc := range Suite() {
		out = append(out, sc.Run())
	}
	return out
}

// Matrix renders results as an attacks × transports table.
func Matrix(results []Result) string {
	cell := map[[2]string]Verdict{}
	for _, r := range results {
		cell[[2]string{r.Attack, r.Transport}] = r.Verdict
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-22s", "attack \\ transport")
	for _, tr := range TransportNames {
		fmt.Fprintf(&b, " %-16s", tr)
	}
	b.WriteByte('\n')
	for _, atk := range AttackNames {
		any := false
		for _, tr := range TransportNames {
			if _, ok := cell[[2]string{atk, tr}]; ok {
				any = true
			}
		}
		if !any && atk != AtkL5AfterL2Breach {
			continue
		}
		fmt.Fprintf(&b, "%-22s", atk)
		for _, tr := range TransportNames {
			v, ok := cell[[2]string{atk, tr}]
			if !ok {
				v = "-"
			}
			fmt.Fprintf(&b, " %-16s", v)
		}
		b.WriteByte('\n')
	}
	// Cross-layer scenarios do not belong to a single transport column.
	for _, r := range results {
		if r.Attack == AtkL5AfterL2Breach {
			fmt.Fprintf(&b, "%-22s %s: %s\n", r.Attack, r.Verdict, r.Detail)
		}
	}
	return b.String()
}

// Summary counts verdicts per transport.
func Summary(results []Result) map[string]map[Verdict]int {
	out := map[string]map[Verdict]int{}
	for _, r := range results {
		if out[r.Transport] == nil {
			out[r.Transport] = map[Verdict]int{}
		}
		out[r.Transport][r.Verdict]++
	}
	return out
}

// --- shared helpers ---

func frame(n int, seed byte) []byte {
	f := make([]byte, n)
	for i := range f {
		f[i] = seed + byte(i)
	}
	return f
}

func blocked(atk, tr, detail string) Result {
	return Result{Attack: atk, Transport: tr, Verdict: Blocked, Detail: detail}
}

func degraded(atk, tr, detail string) Result {
	return Result{Attack: atk, Transport: tr, Verdict: Degraded, Detail: detail}
}

func compromised(atk, tr, detail string) Result {
	return Result{Attack: atk, Transport: tr, Verdict: Compromised, Detail: detail}
}

func na(atk, tr, detail string) Result {
	return Result{Attack: atk, Transport: tr, Verdict: NotApplicable, Detail: detail}
}

// verdictFromFatal maps "guest killed the connection" to Blocked and
// anything else to the fallback.
func verdictFromFatal(atk, tr string, err error, wantErr error, fallback Result) Result {
	if err != nil && (wantErr == nil || errors.Is(err, wantErr)) {
		return blocked(atk, tr, fmt.Sprintf("guest refused: %v", err))
	}
	return fallback
}
