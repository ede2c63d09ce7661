package core

import (
	"io"
	"runtime"
	"testing"
)

// TestEchoAllocBudget: once warm, a 256-byte echo over the dual-boundary
// world allocates nothing anywhere in the process — not the wire's copy
// (the pump hands every frame back to the port), not a tcp wake-up (a
// pooled channel), not a ring, gate or record buffer. The budget is a
// tenth of an allocation per echo, process-wide, for the runtime's and
// the test harness's own strays.
func TestEchoAllocBudget(t *testing.T) {
	const warm, echoes, size = 200, 2000, 256
	w, err := NewWorld(DualBoundary)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	conn, err := w.DialApp()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{opEcho}); err != nil {
		t.Fatal(err)
	}
	req, rep := make([]byte, size), make([]byte, size)
	var before, after runtime.MemStats
	for i := 0; i < warm+echoes; i++ {
		if i == warm {
			runtime.ReadMemStats(&before)
		}
		req[0] = byte(i)
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, rep); err != nil {
			t.Fatal(err)
		}
		if rep[0] != byte(i) {
			t.Fatalf("echo %d came back as %d", i, rep[0])
		}
	}
	runtime.ReadMemStats(&after)
	if raceEnabled {
		return // the echoes ran; the budget does not hold in race builds
	}
	if a := float64(after.Mallocs-before.Mallocs) / echoes; a > 0.1 {
		t.Fatalf("%.2f allocs per echo, want ≤ 0.1", a)
	}
}
