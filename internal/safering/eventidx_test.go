package safering

import (
	"errors"
	"testing"

	"confio/internal/platform"
)

// TestNeedEvent pins the virtio event-idx wrap-compare: ring exactly
// when the armed threshold evt lies in [oldIdx, newIdx), under wrap.
func TestNeedEvent(t *testing.T) {
	const max = ^uint64(0)
	cases := []struct {
		evt, newIdx, oldIdx uint64
		want                bool
	}{
		{0, 1, 0, true},             // first publish, armed at 0
		{0, 5, 0, true},             // batch crossing the threshold
		{4, 5, 0, true},             // threshold at the last published slot
		{5, 5, 0, false},            // threshold exactly at the new index: not crossed yet
		{9, 5, 0, false},            // threshold ahead of everything published
		{max, 5, 0, false},          // suppressed: evt = cons-1 is behind oldIdx
		{2, 5, 3, false},            // threshold already crossed before this publish
		{max - 1, 2, max - 1, true}, // wrap: threshold at old position
		{max, 2, max - 1, true},     // wrap: threshold inside the batch
		{1, 2, max - 1, true},       // wrap: threshold at the last new slot
		{2, 2, max - 1, false},      // wrap: threshold at the new index
	}
	for _, c := range cases {
		if got := NeedEvent(c.evt, c.newIdx, c.oldIdx); got != c.want {
			t.Errorf("NeedEvent(%d, %d, %d) = %v, want %v", c.evt, c.newIdx, c.oldIdx, got, c.want)
		}
	}
}

func eventIdxConfig() DeviceConfig {
	cfg := DefaultConfig()
	cfg.Notify = true
	cfg.EventIdx = true
	return cfg
}

// TestEventIdxTXSuppression: with the host's wake threshold withdrawn
// (actively polling), a sustained guest send load rings zero doorbells;
// re-arming makes the next publish ring exactly once.
func TestEventIdxTXSuppression(t *testing.T) {
	var m platform.Meter
	ep, err := New(eventIdxConfig(), &m)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	hp.SuppressTXNotify()

	buf := make([]byte, ep.Config().FrameCap())
	const rounds = 32
	for i := 0; i < rounds; i++ {
		if err := ep.Send(frame(64, byte(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, err := hp.Pop(buf); err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
	}
	d := m.Snapshot()
	if d.Notifications != 0 {
		t.Fatalf("suppressed load rang %d doorbells, want 0", d.Notifications)
	}
	if d.NotifsSuppressed != rounds {
		t.Fatalf("NotifsSuppressed = %d, want %d", d.NotifsSuppressed, rounds)
	}

	// Going idle: arm. No work is pending, so the recheck reports false.
	if hp.ArmTXNotify() {
		t.Fatal("ArmTXNotify reported pending work on an empty ring")
	}
	if err := ep.Send(frame(64, 0xAA)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ep.Shared().TXBell.Chan():
	default:
		t.Fatal("armed threshold crossed but no doorbell rang")
	}
	if d := m.Snapshot(); d.Notifications != 1 {
		t.Fatalf("Notifications = %d after armed publish, want 1", d.Notifications)
	}
}

// TestEventIdxArmRecheck: arming while work is already published must
// report it (the lost-wakeup recheck), because the publish that posted
// the work may have sampled the pre-arm threshold and elided its ring.
func TestEventIdxArmRecheck(t *testing.T) {
	ep, err := New(eventIdxConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	hp.SuppressTXNotify()
	if err := ep.Send(frame(64, 1)); err != nil {
		t.Fatal(err)
	}
	if !hp.ArmTXNotify() {
		t.Fatal("ArmTXNotify missed a published frame: lost wakeup")
	}
	// RX mirror: host pushes while the guest's threshold is withdrawn.
	ep.SuppressRXNotify()
	if err := hp.Push(frame(64, 2)); err != nil {
		t.Fatal(err)
	}
	if !ep.ArmRXNotify() {
		t.Fatal("ArmRXNotify missed a pushed frame: lost wakeup")
	}
}

// TestEventIdxRXSuppression mirrors the TX test for the host->guest
// direction: a polling guest (threshold withdrawn) takes zero RX
// doorbells under load; arming restores exactly one ring per idle edge.
func TestEventIdxRXSuppression(t *testing.T) {
	var m platform.Meter
	ep, err := New(eventIdxConfig(), &m)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	ep.SuppressRXNotify()

	base := m.Snapshot().Notifications
	const rounds = 32
	for i := 0; i < rounds; i++ {
		if err := hp.Push(frame(64, byte(i))); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		rx, err := ep.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		rx.Release()
	}
	if d := m.Snapshot(); d.Notifications != base {
		t.Fatalf("suppressed RX load rang %d doorbells, want 0", d.Notifications-base)
	}

	if ep.ArmRXNotify() {
		t.Fatal("ArmRXNotify reported pending work on an empty ring")
	}
	if err := hp.Push(frame(64, 0xBB)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ep.RXBell().Chan():
	default:
		t.Fatal("armed RX threshold crossed but no doorbell rang")
	}
}

// TestEventIdxGarbageThresholdHarmless: the event word is
// peer-controlled shared memory. Storing garbage (or rolling it back)
// shifts notification timing only — a polling consumer still sees every
// frame, indexes still validate, nobody fail-deads.
func TestEventIdxGarbageThresholdHarmless(t *testing.T) {
	var m platform.Meter
	ep, err := New(eventIdxConfig(), &m)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	buf := make([]byte, ep.Config().FrameCap())
	garbage := []uint64{^uint64(0), 1 << 63, 12345, 0}
	for i := 0; i < 64; i++ {
		ep.Shared().TX.Indexes().StoreEvent(garbage[i%len(garbage)])
		ep.Shared().RXUsed.Indexes().StoreEvent(garbage[(i+1)%len(garbage)])
		if err := ep.Send(frame(64, byte(i))); err != nil {
			t.Fatalf("send %d under garbage threshold: %v", i, err)
		}
		if _, err := hp.Pop(buf); err != nil {
			t.Fatalf("pop %d under garbage threshold: %v", i, err)
		}
		if err := hp.Push(frame(64, byte(i))); err != nil {
			t.Fatalf("push %d under garbage threshold: %v", i, err)
		}
		rx, err := ep.Recv()
		if err != nil {
			t.Fatalf("recv %d under garbage threshold: %v", i, err)
		}
		rx.Release()
	}
	if err := ep.Dead(); err != nil {
		t.Fatalf("garbage event index killed the endpoint: %v", err)
	}
	if err := hp.Dead(); err != nil {
		t.Fatalf("garbage event index killed the host port: %v", err)
	}
}

// TestEventIdxConfigValidation: event-idx needs doorbells.
func TestEventIdxConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EventIdx = true
	if _, err := New(cfg, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("EventIdx without Notify: %v, want ErrConfig", err)
	}
}
