package attack

import (
	"strings"
	"sync"
	"testing"
)

// allResults runs the whole suite once (26 s) for the three tests that
// read its results; none of them mutates the slice.
var allResults = sync.OnceValue(RunAll)

// TestResilienceMatrix runs the full suite and asserts the paper's
// headline claims hold in this reproduction.
func TestResilienceMatrix(t *testing.T) {
	results := allResults()
	if len(results) == 0 {
		t.Fatal("empty suite")
	}
	byTransport := Summary(results)

	// Claim 1: the safe ring is never compromised — in either RX policy,
	// in either data mode, with multiple queues (no per-queue weakening
	// of the argument), and as the storage instantiation of the same
	// engine.
	for _, tr := range []string{"safering", "safering-revoke", "safering-mq", "safering-inline", "blkring"} {
		if n := byTransport[tr][Compromised]; n != 0 {
			t.Errorf("%s compromised %d times", tr, n)
			logTransport(t, results, tr)
		}
	}
	// The deployed mode (Inline, DefaultConfig) blocks every attack that
	// applies to it: the slab-only rows read n/a, nothing is degraded.
	if n := byTransport["safering-inline"][Degraded]; n != 0 {
		t.Errorf("safering-inline degraded %d times", n)
		logTransport(t, results, "safering-inline")
	}

	// Claim 2: the unhardened legacy transports are compromised by
	// several attack classes.
	for _, tr := range []string{"virtio", "netvsc"} {
		if n := byTransport[tr][Compromised]; n < 3 {
			t.Errorf("%s compromised only %d times; baseline should be exploitable", tr, n)
			logTransport(t, results, tr)
		}
	}

	// Claim 3: full retrofitting blocks the modelled classes (at a
	// measured performance cost — see the benchmarks).
	for _, tr := range []string{"virtio-hardened", "netvsc-hardened"} {
		if n := byTransport[tr][Compromised]; n != 0 {
			t.Errorf("%s compromised %d times despite full hardening", tr, n)
			logTransport(t, results, tr)
		}
	}

	// Claim 4: the multi-tenant gateway blocks every modelled attack on
	// both of its boundaries — a malicious tenant (or a lying host
	// forging tenant identity) harms at most its own tenancy, and a
	// host-level violation still fail-deads loudly.
	gw := 0
	for _, r := range results {
		if r.Transport == "gateway" {
			gw++
			if r.Verdict != Blocked {
				t.Errorf("gateway: %v", r)
			}
		}
	}
	if gw == 0 {
		t.Error("gateway column missing from the suite")
	}

	// Claim 5: a breached I/O layer dies at the L5 secure channel.
	found := false
	for _, r := range results {
		if r.Attack == AtkL5AfterL2Breach {
			found = true
			if r.Verdict != Blocked {
				t.Errorf("multi-stage scenario: %v", r)
			}
		}
	}
	if !found {
		t.Error("multi-stage scenario missing")
	}
}

func logTransport(t *testing.T, results []Result, tr string) {
	t.Helper()
	for _, r := range results {
		if r.Transport == tr {
			t.Logf("  %s", r)
		}
	}
}

func TestEveryScenarioHasCoordinates(t *testing.T) {
	knownAtk := map[string]bool{}
	for _, a := range AttackNames {
		knownAtk[a] = true
	}
	for _, sc := range Suite() {
		if !knownAtk[sc.Attack] {
			t.Errorf("scenario attack %q not in AttackNames", sc.Attack)
		}
		if sc.Transport == "" {
			t.Errorf("scenario %q has no transport", sc.Attack)
		}
	}
}

func TestSuiteCoverage(t *testing.T) {
	// Every transport column faces every L2 attack class.
	have := map[[2]string]bool{}
	for _, sc := range Suite() {
		have[[2]string{sc.Attack, sc.Transport}] = true
	}
	for _, tr := range TransportNames {
		for _, atk := range AttackNames {
			if atk == AtkL5AfterL2Breach {
				continue
			}
			tenantAtk := atk == AtkTenantCrossRead || atk == AtkTenantStallNbr || atk == AtkTenantKillNbr
			if tenantAtk && tr != "gateway" {
				continue // only the multi-tenant gateway has a tenant boundary
			}
			if tr == "gateway" && !tenantAtk {
				// The gateway rides on the safering-mq engine; ring-level
				// rows are covered by that column. It re-proves only the
				// classes with a new surface at the fan-in boundary.
				switch atk {
				case AtkIndexOverclaim, AtkReplay, AtkForgedHandle, AtkNotifStorm:
				default:
					continue
				}
			}
			engineTr := strings.HasPrefix(tr, "safering") || tr == "blkring"
			if atk == AtkIndexRewind && !engineTr {
				continue // modelled only where consumer indexes exist separately
			}
			if atk == AtkQueueCrossKill && !engineTr {
				continue // needs sibling queues; baselines model single-queue devices
			}
			if (atk == AtkEpochReplay || atk == AtkReattachStorm) && !engineTr {
				continue // recovery is a safe-ring feature; baselines have no Reincarnate
			}
			if atk == AtkEventIdxLie && !engineTr {
				continue // event-idx suppression exists only on the engine transports
			}
			if atk == AtkWakeSpam && !strings.HasPrefix(tr, "safering") {
				continue // only a network stack parks on a producer index
			}
			if (atk == AtkStatusCorrupt || atk == AtkBlkWakeSpam || atk == AtkMerkleSibSwap || atk == AtkSectorTransplnt || atk == AtkFrontierRollbk) && tr != "blkring" {
				continue // status words, the consumer-side park, the Merkle tree, sector tags and the frontier are storage surfaces
			}
			if !have[[2]string{atk, tr}] {
				t.Errorf("no scenario for %s × %s", atk, tr)
			}
		}
	}
}

func TestMatrixRendering(t *testing.T) {
	results := allResults()
	m := Matrix(results)
	for _, tr := range TransportNames {
		if !strings.Contains(m, tr) {
			t.Errorf("matrix missing transport %s", tr)
		}
	}
	if !strings.Contains(m, AtkLengthLie) || !strings.Contains(m, string(Compromised)) {
		t.Fatalf("matrix incomplete:\n%s", m)
	}
	if !strings.Contains(m, AtkL5AfterL2Breach) {
		t.Fatal("matrix missing cross-layer row")
	}
}

func TestVerdictDerivedNotAsserted(t *testing.T) {
	// Spot check: the same attack flips verdict with hardening — the
	// harness measures behaviour rather than echoing expectations.
	results := allResults()
	verdict := func(atk, tr string) Verdict {
		for _, r := range results {
			if r.Attack == atk && r.Transport == tr {
				return r.Verdict
			}
		}
		return ""
	}
	if verdict(AtkDoubleFetch, "virtio") != Compromised {
		t.Error("unhardened virtio should lose the double-fetch")
	}
	if verdict(AtkDoubleFetch, "virtio-hardened") != Blocked {
		t.Error("hardened virtio should win the double-fetch")
	}
	if verdict(AtkLengthLie, "netvsc") != Compromised {
		t.Error("unhardened netvsc should leak on length lie")
	}
	if verdict(AtkLengthLie, "netvsc-hardened") != Blocked {
		t.Error("hardened netvsc should block length lie")
	}
	if verdict(AtkFeatureTOCTOU, "safering") != NotApplicable {
		t.Error("safering has no control plane to TOCTOU")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Attack: "a", Transport: "t", Verdict: Blocked, Detail: "d"}
	if !strings.Contains(r.String(), "BLOCKED") {
		t.Fatal("Result.String")
	}
}
