package netstack

import (
	"errors"
	"strings"
	"testing"
	"time"

	"confio/internal/ipv4"
	"confio/internal/nic"
	"confio/internal/safering"
)

// unstartedStack is a stack over a safe ring whose loop never runs, so
// the test alone decides which path meets the host's violation first.
func unstartedStack(t *testing.T) (*Stack, *safering.Endpoint) {
	t.Helper()
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(ep.NIC(), ipv4.Addr{10, 9, 0, 1})
	t.Cleanup(s.Close)
	return s, ep
}

// degradedBy asserts that the stack degraded on a terminal error
// (nic.ErrClosed) that is still the violation (safering.ErrProtocol) and
// names the check which failed.
func degradedBy(t *testing.T, s *Stack, check string) {
	t.Helper()
	e := s.Degraded()
	if !errors.Is(e, nic.ErrClosed) || !errors.Is(e, safering.ErrProtocol) || !strings.Contains(e.Error(), check) {
		t.Fatalf("Degraded() = %v: want nic.ErrClosed that is also safering.ErrProtocol naming %q", e, check)
	}
}

// TestFirstFatalSendDegrades: the send that first meets a host violation
// (a transmit consumer index past anything the guest produced) degrades
// the stack itself, with the cause, and every frame it lost is a dead
// drop — not only the send after it, with a bare nic.ErrClosed. The Dial
// whose SYN it was fails with that cause.
func TestFirstFatalSendDegrades(t *testing.T) {
	s, ep := unstartedStack(t)
	ep.Shared().TX.Indexes().StoreCons(1000)
	// The SYN waits for ARP; the request is the one frame sent.
	if _, err := s.Dial(ipv4.Addr{10, 9, 0, 2}, 7, 5*time.Second); !errors.Is(err, nic.ErrClosed) {
		t.Fatalf("Dial = %v: want the transport's terminal error", err)
	}
	degradedBy(t, s, "consumer index 1000 ahead of producer")
	if st := s.Stats(); st.DeadDrops != st.SendDrops || st.SendDrops == 0 {
		t.Fatalf("SendDrops %d, DeadDrops %d: every drop after the death is a dead drop", st.SendDrops, st.DeadDrops)
	}
}

// TestFirstFatalReceiveDegrades is the receive twin: the one step that
// meets a receive producer index past the ring degrades the stack and
// ends its loop.
func TestFirstFatalReceiveDegrades(t *testing.T) {
	s, ep := unstartedStack(t)
	ep.Shared().RXUsed.Indexes().StoreProd(uint64(ep.Config().Slots) * 4)
	if _, _, err := s.rx.step(); !errors.Is(err, nic.ErrClosed) {
		t.Fatalf("step = %v: want the terminal error that ends the loop", err)
	}
	degradedBy(t, s, "outstanding")
}
