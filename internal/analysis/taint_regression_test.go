package analysis_test

import (
	"path/filepath"
	"testing"

	"confio/internal/analysis"
	"confio/internal/analysis/analysistest"
)

// TestHostTaintCatchesUnmaskedSlots runs hosttaint over
// testdata/src/taintreg, which replays the safe ring's slot masks —
// Endpoint.recvSlotLocked's slab index, HostPort.gather's indirect-entry
// mask and HostPort.popFreeSlab's slab mask — as shipped and with the
// mask deleted. Each shipped shape must stay clean; each unmasked shape
// whose number reaches a Go index or slice bound carries a want line. If
// this test starts failing, the one host-taint rule has lost the bug
// class at the sites it exists for.
func TestHostTaintCatchesUnmaskedSlots(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src"), analysis.HostTaintAnalyzer, "taintreg")
}
