package chaos

import (
	"testing"
)

// TestScriptedFaults runs every scripted scenario and enumerates its
// terminal outcome. The recovery contract: every run ends Absorbed,
// CleanEpoch, or FailDead — a Corrupt verdict anywhere is a bug in the
// recovery subsystem and fails loudly.
func TestScriptedFaults(t *testing.T) {
	want := map[string]Outcome{
		"index-corrupt":         CleanEpoch,
		"mid-batch-kill":        CleanEpoch,
		"doorbell-flood":        Absorbed,
		"host-stall":            CleanEpoch,
		"notify-suppress-stall": CleanEpoch,
		"epoch-replay":          CleanEpoch,
		"reattach-storm":        FailDead,
		"mq-cross-kill":         CleanEpoch,
		"mq-reattach-storm":     FailDead,
		"blk-index-corrupt":     CleanEpoch,
		"blk-host-stall":        CleanEpoch,
		"blk-slow-host":         CleanEpoch,
		"blk-epoch-replay":      CleanEpoch,
		"blk-mq-cross-kill":     CleanEpoch,
		"blk-mq-reattach-storm": FailDead,
		"tenant-flood":          CleanEpoch,
		"tenant-stall":          CleanEpoch,
		"tenant-key-corrupt":    CleanEpoch,
		"tenant-evict-storm":    Evicted,
		"cross-tenant-death":    Evicted,
	}
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r := sc.Run()
			t.Log(r)
			if r.Outcome == Corrupt {
				t.Fatalf("forbidden live-but-corrupt state: %s", r.Detail)
			}
			if w, ok := want[sc.Name]; !ok {
				t.Fatalf("scenario %q missing from the expected-outcome table", sc.Name)
			} else if r.Outcome != w {
				t.Fatalf("outcome %s, want %s (%s)", r.Outcome, w, r.Detail)
			}
		})
	}
	if len(want) != len(Scenarios()) {
		t.Fatalf("expected-outcome table has %d entries, %d scenarios exist", len(want), len(Scenarios()))
	}
}

// TestRandomStorms replays seeded-random fault storms. Any seed may end
// Absorbed, CleanEpoch, or FailDead; none may ever end Corrupt.
func TestRandomStorms(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := RandomRun(seed, 40)
		t.Log(r)
		if r.Outcome == Corrupt {
			t.Fatalf("seed %d reached the forbidden state: %s", seed, r.Detail)
		}
	}
}

// TestRandomReproducible pins determinism: the same seed must replay the
// same storm to the same verdict (the chaos harness is an experiment,
// not a dice roll).
func TestRandomReproducible(t *testing.T) {
	a, b := RandomRun(7, 30), RandomRun(7, 30)
	if a.Outcome != b.Outcome || a.Deaths != b.Deaths || a.Epoch != b.Epoch {
		t.Fatalf("seed 7 not reproducible: %v vs %v", a, b)
	}
}
