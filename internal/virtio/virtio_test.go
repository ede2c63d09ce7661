package virtio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"confio/internal/nic"
)

func mkFrame(n int, seed byte) []byte {
	f := make([]byte, n)
	for i := range f {
		f[i] = seed + byte(i)
	}
	return f
}

func pair(t *testing.T, h Hardening) (*Driver, *Device) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Hardening = h
	d, dv, err := NewPair(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, dv
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{MTU: 10, QueueSize: 256, BufSize: 2048},
		{MTU: 1500, QueueSize: 100, BufSize: 2048},
		{MTU: 1500, QueueSize: 256, BufSize: 1024},
		{MTU: 20000, QueueSize: 256, BufSize: 2048},
	}
	for i, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestHardeningString(t *testing.T) {
	s := FullHardening().String()
	if !strings.Contains(s, "checks+") || !strings.Contains(s, "copies+") {
		t.Fatalf("String = %q", s)
	}
	if !strings.Contains(NoHardening().String(), "checks-") {
		t.Fatal("NoHardening string wrong")
	}
}

func TestNegotiationHappyPath(t *testing.T) {
	d, dv := pair(t, NoHardening())
	if d.Features()&FeatMrgRxBuf == 0 {
		t.Fatal("wanted feature not negotiated")
	}
	if dv.Control().ReadStatus()&StatusDriverOK == 0 {
		t.Fatal("driver never reached DRIVER_OK")
	}
	if d.Features() != d.PlannedFeatures() {
		t.Fatal("happy path diverged")
	}
}

func TestRestrictFeaturesStripsRiskyBits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WantFeatures |= FeatIndirectDesc | FeatEventIdx
	cfg.Hardening = Hardening{RestrictFeatures: true, RaceProtect: true}
	d, _, err := NewPair(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Features()&(FeatIndirectDesc|FeatEventIdx) != 0 {
		t.Fatalf("risky features negotiated despite restriction: %#x", d.Features())
	}
	// Without restriction they negotiate.
	cfg.Hardening = Hardening{RaceProtect: true}
	d2, _, err := NewPair(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Features()&FeatEventIdx == 0 {
		t.Fatal("event idx should negotiate when unrestricted")
	}
}

func TestFeatureTOCTOU(t *testing.T) {
	// A device that offers checksum offload on the validation fetch and
	// withdraws it on the store fetch desynchronizes the legacy driver.
	mkCtrl := func() *Control {
		c := NewControl(knownFeatures)
		c.FeatureHook = func(fetch int, base uint64) uint64 {
			if fetch == 1 {
				return base
			}
			return base &^ FeatChecksumOffload
		}
		return c
	}
	cfg := DefaultConfig()
	cfg.WantFeatures = FeatChecksumOffload

	tx, _ := NewQueue(cfg.QueueSize, cfg.BufSize)
	rx, _ := NewQueue(cfg.QueueSize, cfg.BufSize)
	d, err := NewDriver(cfg, mkCtrl(), tx, rx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Features() == d.PlannedFeatures() {
		t.Fatal("legacy driver should have diverged (validated offload, stored none)")
	}
	if d.Stats().TrustedUnchecked == 0 {
		t.Fatal("divergence not accounted")
	}

	// The race-protect retrofit fetches once: no divergence possible.
	cfg.Hardening.RaceProtect = true
	tx2, _ := NewQueue(cfg.QueueSize, cfg.BufSize)
	rx2, _ := NewQueue(cfg.QueueSize, cfg.BufSize)
	ctrl := mkCtrl()
	d2, err := NewDriver(cfg, ctrl, tx2, rx2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Features() != d2.PlannedFeatures() {
		t.Fatal("hardened driver diverged")
	}
	if ctrl.Fetches() != 1 {
		t.Fatalf("hardened driver fetched features %d times", ctrl.Fetches())
	}
}

func TestNegotiationRejectedByDevice(t *testing.T) {
	cfg := DefaultConfig()
	ctrl := NewControl(0) // offers nothing; driver wants MrgRxBuf -> gets none, fine
	// Force a failure: device pre-asserts FAILED.
	ctrl.ForceStatus(StatusFailed)
	// WriteStatus overwrites status, so model rejection via feature
	// mismatch instead: driver accepts a bit the device never offered.
	ctrl2 := NewControl(0)
	ctrl2.FeatureHook = func(fetch int, base uint64) uint64 { return FeatMrgRxBuf } // lies about offer
	tx, _ := NewQueue(cfg.QueueSize, cfg.BufSize)
	rx, _ := NewQueue(cfg.QueueSize, cfg.BufSize)
	if _, err := NewDriver(cfg, ctrl2, tx, rx, nil); !errors.Is(err, ErrNegotiation) {
		t.Fatalf("want ErrNegotiation, got %v", err)
	}
}

func TestTxRoundTripWithWrap(t *testing.T) {
	for _, h := range []Hardening{NoHardening(), FullHardening()} {
		d, dv := pair(t, h)
		buf := make([]byte, d.cfg.BufSize)
		for i := 0; i < 3*d.cfg.QueueSize; i++ {
			f := mkFrame(64+i%1400, byte(i))
			if err := d.Send(f); err != nil {
				t.Fatalf("%v send %d: %v", h, i, err)
			}
			n, err := dv.Pop(buf)
			if err != nil {
				t.Fatalf("%v pop %d: %v", h, i, err)
			}
			if !bytes.Equal(buf[:n], f) {
				t.Fatalf("%v frame %d corrupted", h, i)
			}
		}
		if _, err := dv.Pop(buf); !errors.Is(err, nic.ErrEmpty) {
			t.Fatalf("empty pop: %v", err)
		}
	}
}

func TestRxRoundTripWithWrap(t *testing.T) {
	for _, h := range []Hardening{NoHardening(), FullHardening()} {
		d, dv := pair(t, h)
		for i := 0; i < 3*d.cfg.QueueSize; i++ {
			f := mkFrame(64+i%1400, byte(i))
			if err := dv.Push(f); err != nil {
				t.Fatalf("%v push %d: %v", h, i, err)
			}
			rx, err := d.Recv()
			if err != nil {
				t.Fatalf("%v recv %d: %v", h, i, err)
			}
			if !bytes.Equal(rx.Bytes(), f) {
				t.Fatalf("%v frame %d corrupted", h, i)
			}
			rx.Release()
			rx.Release() // idempotent
		}
		if _, err := d.Recv(); !errors.Is(err, nic.ErrEmpty) {
			t.Fatalf("empty recv: %v", err)
		}
	}
}

func TestTxFullWhenDeviceStalls(t *testing.T) {
	d, _ := pair(t, NoHardening())
	for i := 0; i < d.cfg.QueueSize; i++ {
		if err := d.Send(mkFrame(64, 1)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := d.Send(mkFrame(64, 1)); !errors.Is(err, nic.ErrFull) {
		t.Fatalf("want nic.ErrFull, got %v", err)
	}
}

func TestRxFullWhenGuestStalls(t *testing.T) {
	d, dv := pair(t, NoHardening())
	for i := 0; i < d.cfg.QueueSize; i++ {
		if err := dv.Push(mkFrame(64, 1)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := dv.Push(mkFrame(64, 1)); !errors.Is(err, nic.ErrFull) {
		t.Fatalf("want nic.ErrFull, got %v", err)
	}
}

func TestSendRejectsBadSizes(t *testing.T) {
	d, _ := pair(t, NoHardening())
	if err := d.Send(nil); err == nil {
		t.Fatal("empty frame accepted")
	}
	if err := d.Send(make([]byte, d.cfg.BufSize+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestDeviceTruncatesToPostedBuffer(t *testing.T) {
	d, dv := pair(t, FullHardening())
	big := mkFrame(d.cfg.BufSize, 5)
	if err := dv.Push(big); err != nil {
		t.Fatal(err)
	}
	rx, err := d.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(rx.Bytes()) != d.cfg.BufSize {
		t.Fatalf("len = %d", len(rx.Bytes()))
	}
	rx.Release()
}
