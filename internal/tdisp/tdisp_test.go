package tdisp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"confio/internal/nic"
	"confio/internal/platform"
	"confio/internal/simnet"
)

var (
	devKey   = []byte("manufacturer-provisioned-key-32b")
	firmware = []byte("nic-firmware-v1.2.3")
)

func freshSetup(t *testing.T, net *simnet.Network, id DeviceID, mac byte) (*Guest, *Device, *Relay) {
	t.Helper()
	dev := NewDevice(id, devKey, firmware, net.NewPort())
	relay := &Relay{}
	dev.Connect(relay)
	rot := &RootOfTrust{
		Keys: map[DeviceID][]byte{id: devKey},
		Good: map[Measurement]bool{MeasureFirmware(firmware): true},
	}
	g, err := Attach(dev, rot, relay, [6]byte{2, 0, 0, 0, 0, mac}, 1500, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, dev, relay
}

// start runs each device's firmware loop on one driver.
func start(devs ...*Device) *nic.Driver {
	fw := new(nic.Driver)
	for _, d := range devs {
		fw.Go(d.Loop())
	}
	return fw
}

func mkFrame(dst, src byte, payload []byte) []byte {
	f := make([]byte, 14+len(payload))
	copy(f[0:6], []byte{2, 0, 0, 0, 0, dst})
	copy(f[6:12], []byte{2, 0, 0, 0, 0, src})
	f[12], f[13] = 0x08, 0x00
	copy(f[14:], payload)
	return f
}

func TestAttestAndExchange(t *testing.T) {
	net := simnet.New()
	ga, da, _ := freshSetup(t, net, "nic-a", 0xA)
	gb, db, _ := freshSetup(t, net, "nic-b", 0xB)
	fw := start(da, db)
	defer fw.Stop()

	want := mkFrame(0xB, 0xA, []byte("over attested hardware"))
	if err := ga.Send(want); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		fr, err := gb.Recv()
		if err == nil {
			if !bytes.Equal(fr.Bytes(), want) {
				t.Fatal("frame corrupted end to end")
			}
			fr.Release()
			break
		}
		if !errors.Is(err, nic.ErrEmpty) {
			t.Fatal(err)
		}
		select {
		case <-deadline:
			t.Fatal("frame never arrived")
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	if err := fw.Err(); err != nil {
		t.Fatalf("firmware loop: %v", err)
	}
}

func TestTamperedFirmwareFailsAttestation(t *testing.T) {
	net := simnet.New()
	dev := NewDevice("nic-x", devKey, firmware, net.NewPort())
	dev.Connect(&Relay{})
	dev.TamperFirmware()
	rot := &RootOfTrust{
		Keys: map[DeviceID][]byte{"nic-x": devKey},
		Good: map[Measurement]bool{MeasureFirmware(firmware): true},
	}
	_, err := Attach(dev, rot, &Relay{}, [6]byte{2}, 1500, nil)
	if !errors.Is(err, ErrAttestation) {
		t.Fatalf("tampered device attached: %v", err)
	}
}

func TestUnknownDeviceRejected(t *testing.T) {
	net := simnet.New()
	dev := NewDevice("rogue", []byte("wrong-key-entirely-0123456789ab"), firmware, net.NewPort())
	rot := &RootOfTrust{
		Keys: map[DeviceID][]byte{"nic-a": devKey},
		Good: map[Measurement]bool{MeasureFirmware(firmware): true},
	}
	if _, err := Attach(dev, rot, &Relay{}, [6]byte{2}, 1500, nil); !errors.Is(err, ErrAttestation) {
		t.Fatalf("unknown device attached: %v", err)
	}
	// Known ID but wrong key (impersonation) also fails.
	rot.Keys["rogue"] = devKey
	if _, err := Attach(dev, rot, &Relay{}, [6]byte{2}, 1500, nil); !errors.Is(err, ErrAttestation) {
		t.Fatalf("impersonating device attached: %v", err)
	}
}

func TestHostTamperOnLinkIsFatal(t *testing.T) {
	net := simnet.New()
	ga, da, relay := freshSetup(t, net, "nic-a", 0xA)
	_, db, _ := freshSetup(t, net, "nic-b", 0xB)
	fw := start(db)
	defer fw.Stop()

	// Host flips a bit in TLPs toward the device.
	relay.HookToDevice = func(t []byte) []byte { t[0] ^= 1; return t }
	if err := ga.Send(mkFrame(0xB, 0xA, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	// The device's next step must hit the IDE error state.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := da.Step(); errors.Is(err, ErrIDE) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("tampered TLP never detected")
}

func TestHostReplayOnLinkIsFatal(t *testing.T) {
	net := simnet.New()
	ga, da, relay := freshSetup(t, net, "nic-a", 0xA)
	gb, db, _ := freshSetup(t, net, "nic-b", 0xB)
	fw := start(da, db)
	defer fw.Stop()

	// Capture TLPs toward the TEE and replay the first one.
	var captured []byte
	relay.HookToTEE = func(t []byte) []byte {
		if captured == nil {
			captured = append([]byte{}, t...)
		}
		return t
	}
	if err := gb.Send(mkFrame(0xA, 0xB, []byte("once"))); err != nil {
		t.Fatal(err)
	}
	// Drain the legit frame.
	deadline := time.Now().Add(2 * time.Second)
	for {
		fr, err := ga.Recv()
		if err == nil {
			fr.Release()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("legit frame lost")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Replay.
	relay.pushToTEE(captured)
	if _, err := ga.Recv(); !errors.Is(err, nic.ErrClosed) {
		t.Fatalf("replayed TLP accepted: %v", err)
	}
	if ga.Dead() == nil {
		t.Fatal("link not dead after replay")
	}
}

func TestHostSeesOnlyOpaqueTLPs(t *testing.T) {
	net := simnet.New()
	ga, _, relay := freshSetup(t, net, "nic-a", 0xA)
	secret := []byte("SECRET-IN-TRANSIT")
	var seen []byte
	relay.HookToDevice = func(t []byte) []byte { seen = append(seen, t...); return t }
	if err := ga.Send(mkFrame(0xB, 0xA, secret)); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(seen, secret) {
		t.Fatal("plaintext visible on the PCIe path")
	}
	if relay.Observed == 0 {
		t.Fatal("host observed nothing (sizes should be visible)")
	}
}

func TestCryptoMetered(t *testing.T) {
	net := simnet.New()
	var m platform.Meter
	dev := NewDevice("nic-m", devKey, firmware, net.NewPort())
	relay := &Relay{}
	dev.Connect(relay)
	rot := &RootOfTrust{
		Keys: map[DeviceID][]byte{"nic-m": devKey},
		Good: map[Measurement]bool{MeasureFirmware(firmware): true},
	}
	g, err := Attach(dev, rot, relay, [6]byte{2, 0, 0, 0, 0, 1}, 1500, &m)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Send(mkFrame(2, 1, make([]byte, 1000))); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().CryptoBytes < 1000 {
		t.Fatalf("CryptoBytes = %d", m.Snapshot().CryptoBytes)
	}
	if err := g.Send(nil); err == nil {
		t.Fatal("empty frame accepted")
	}
}

func TestStepWithoutAttach(t *testing.T) {
	net := simnet.New()
	dev := NewDevice("nic-d", devKey, firmware, net.NewPort())
	dev.Connect(&Relay{})
	if _, err := dev.Step(); !errors.Is(err, ErrDetached) {
		t.Fatalf("step before attach: %v", err)
	}
}
