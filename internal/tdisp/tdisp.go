// Package tdisp models the hardware community's answer to confidential
// I/O (§3.4, Direct Device Assignment): instead of hardening the driver
// against the host, extend the interconnect — SPDM-style device
// attestation plus IDE (integrity & data encryption) on the TEE↔device
// link — and then *trust the attested device*.
//
// The model:
//
//   - Device is a NIC with a manufacturer-provisioned secret and a
//     firmware measurement. It attaches directly to the physical network
//     (it is the NIC), and speaks the IDE link toward the TEE.
//
//   - RootOfTrust holds the manufacturer verification keys and the
//     golden measurements; Attach runs the SPDM-flavoured
//     challenge-response and, on success, derives the IDE session keys.
//
//   - The host sits on the PCIe path between TEE and device: Relay gives
//     it the same powers it has over shared-memory rings — observe,
//     drop, reorder, replay, inject, tamper — but every TLP is
//     AEAD-sealed with a strict sequence number, so all it learns is
//     sizes and timing, and all it can do is deny service.
//
// The trade-offs the paper calls out are visible in the experiment
// metrics: the attested device joins the TCB (tcb.CompDeviceFW), the
// IDE crypto is paid per byte, and the interface needs no hardening at
// all because the peer is no longer distrusted.
package tdisp

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"confio/internal/nic"
	"confio/internal/platform"
)

// Measurement is a firmware measurement (hash).
type Measurement [32]byte

// DeviceID names a physical device instance.
type DeviceID string

// Errors.
var (
	ErrAttestation = errors.New("tdisp: device attestation failed")
	ErrIDE         = nic.Fatal("tdisp: IDE integrity failure", nic.ErrClosed)
	ErrDetached    = errors.New("tdisp: device not attached")
)

// MeasureFirmware hashes a firmware blob into a Measurement.
func MeasureFirmware(fw []byte) Measurement { return sha256.Sum256(fw) }

// Device is the physical NIC: it holds its provisioning secret and
// firmware, and forwards frames between the IDE link and the wire.
type Device struct {
	ID       DeviceID
	secret   []byte // manufacturer-provisioned attestation key
	firmware []byte

	mu    sync.Mutex
	ide   *ideSession
	wire  WirePort
	relay *Relay
}

// WirePort abstracts the physical port (simnet.Port satisfies it).
type WirePort interface {
	Send(frame []byte) error
	Recv() ([]byte, bool)
}

// NewDevice manufactures a device with the given secret and firmware.
func NewDevice(id DeviceID, secret, firmware []byte, wire WirePort) *Device {
	fw := append([]byte{}, firmware...)
	return &Device{ID: id, secret: append([]byte{}, secret...), firmware: fw, wire: wire}
}

// Measurement returns the device's current firmware measurement.
func (d *Device) Measurement() Measurement {
	d.mu.Lock()
	defer d.mu.Unlock()
	return MeasureFirmware(d.firmware)
}

// TamperFirmware models a supply-chain or runtime compromise of the
// device: the measurement changes, so attestation must start failing.
func (d *Device) TamperFirmware() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.firmware = append(d.firmware, []byte("-implant")...)
}

// attestationResponse answers an SPDM-style challenge: HMAC over nonce
// and the *current* measurement, keyed by the provisioning secret.
func (d *Device) attestationResponse(nonce []byte) (Measurement, []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	meas := MeasureFirmware(d.firmware)
	m := hmac.New(sha256.New, d.secret)
	m.Write(nonce)
	m.Write(meas[:])
	return meas, m.Sum(nil)
}

// RootOfTrust is the TEE-side verification database: per-device keys
// (from the manufacturer) and the set of acceptable measurements.
type RootOfTrust struct {
	Keys map[DeviceID][]byte
	Good map[Measurement]bool
}

// ideSession is one direction-pair of IDE keys with strict sequencing.
type ideSession struct {
	mu      sync.Mutex
	sealKey cipher.AEAD
	openKey cipher.AEAD
	sealIV  [12]byte
	openIV  [12]byte
	sealSeq uint64
	openSeq uint64
}

func newIDESession(secret []byte, sealLabel, openLabel string) (*ideSession, error) {
	mk := func(label string) (cipher.AEAD, [12]byte, error) {
		var iv [12]byte
		h := hmac.New(sha256.New, secret)
		h.Write([]byte(label))
		key := h.Sum(nil)
		block, err := aes.NewCipher(key[:16])
		if err != nil {
			return nil, iv, err
		}
		aead, err := cipher.NewGCM(block)
		if err != nil {
			return nil, iv, err
		}
		copy(iv[:], key[16:28])
		return aead, iv, nil
	}
	s := &ideSession{}
	var err error
	if s.sealKey, s.sealIV, err = mk(sealLabel); err != nil {
		return nil, err
	}
	if s.openKey, s.openIV, err = mk(openLabel); err != nil {
		return nil, err
	}
	return s, nil
}

func nonceFor(iv [12]byte, seq uint64) []byte {
	n := make([]byte, 12)
	copy(n, iv[:])
	binary.BigEndian.PutUint64(n[4:], binary.BigEndian.Uint64(n[4:])^seq)
	return n
}

// Seal produces the next outbound TLP.
func (s *ideSession) Seal(payload []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	ct := s.sealKey.Seal(nil, nonceFor(s.sealIV, s.sealSeq), payload, nil)
	s.sealSeq++
	return ct
}

// Open verifies the next inbound TLP; any loss, reorder, replay or
// tamper fails authentication (strict sequence, like real IDE).
func (s *ideSession) Open(tlp []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pt, err := s.openKey.Open(nil, nonceFor(s.openIV, s.openSeq), tlp, nil)
	if err != nil {
		return nil, ErrIDE
	}
	s.openSeq++
	return pt, nil
}

// Relay is the host's position on the PCIe path. Honest relays forward;
// the attack harness substitutes hostile behaviours via the Hooks.
type Relay struct {
	mu sync.Mutex
	// queues of opaque TLPs in each direction
	toDevice [][]byte
	toTEE    [][]byte
	// Observed counts what the host saw (sizes only — TLPs are opaque).
	Observed uint64
	// HookToDevice / HookToTEE, when set, may transform each TLP (return
	// nil to drop, a modified slice to tamper).
	HookToDevice func([]byte) []byte
	HookToTEE    func([]byte) []byte
}

func (r *Relay) pushToDevice(tlp []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Observed++
	if r.HookToDevice != nil {
		tlp = r.HookToDevice(tlp)
		if tlp == nil {
			return
		}
	}
	r.toDevice = append(r.toDevice, tlp)
}

func (r *Relay) pushToTEE(tlp []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Observed++
	if r.HookToTEE != nil {
		tlp = r.HookToTEE(tlp)
		if tlp == nil {
			return
		}
	}
	r.toTEE = append(r.toTEE, tlp)
}

func (r *Relay) popToDevice() ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.toDevice) == 0 {
		return nil, false
	}
	t := r.toDevice[0]
	r.toDevice = r.toDevice[1:]
	return t, true
}

func (r *Relay) popToTEE() ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.toTEE) == 0 {
		return nil, false
	}
	t := r.toTEE[0]
	r.toTEE = r.toTEE[1:]
	return t, true
}

// Guest is the TEE-side attached device: a nic.Guest whose frames travel
// the IDE link.
type Guest struct {
	mac   [6]byte
	mtu   int
	relay *Relay
	ide   *ideSession
	meter *platform.Meter
	dead  error
	mu    sync.Mutex
}

// Attach attests the device against the root of trust and, on success,
// establishes the IDE session and returns the TEE-side NIC. The relay is
// the host's vantage point.
func Attach(dev *Device, rot *RootOfTrust, relay *Relay, mac [6]byte, mtu int, meter *platform.Meter) (*Guest, error) {
	key, ok := rot.Keys[dev.ID]
	if !ok {
		return nil, fmt.Errorf("%w: unknown device %q", ErrAttestation, dev.ID)
	}
	var nonce [32]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, err
	}
	meas, proof := dev.attestationResponse(nonce[:])
	m := hmac.New(sha256.New, key)
	m.Write(nonce[:])
	m.Write(meas[:])
	if !hmac.Equal(proof, m.Sum(nil)) {
		return nil, fmt.Errorf("%w: bad attestation signature", ErrAttestation)
	}
	if !rot.Good[meas] {
		return nil, fmt.Errorf("%w: measurement not in policy", ErrAttestation)
	}

	// Session secret: HKDF-flavoured from device key + nonce + measurement.
	h := hmac.New(sha256.New, key)
	h.Write(nonce[:])
	h.Write(meas[:])
	h.Write([]byte("ide session"))
	secret := h.Sum(nil)

	teeIDE, err := newIDESession(secret, "tee2dev", "dev2tee")
	if err != nil {
		return nil, err
	}
	devIDE, err := newIDESession(secret, "dev2tee", "tee2dev")
	if err != nil {
		return nil, err
	}
	dev.mu.Lock()
	dev.ide = devIDE
	dev.mu.Unlock()
	return &Guest{mac: mac, mtu: mtu, relay: relay, ide: teeIDE, meter: meter}, nil
}

// MAC implements nic.Guest.
func (g *Guest) MAC() [6]byte { return g.mac }

// MTU implements nic.Guest.
func (g *Guest) MTU() int { return g.mtu }

// Send seals the frame into a TLP toward the device.
func (g *Guest) Send(frame []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dead != nil {
		return g.dead
	}
	if len(frame) == 0 || len(frame) > g.mtu+64 {
		return fmt.Errorf("tdisp: frame size %d out of range", len(frame))
	}
	g.meter.Crypto(len(frame))
	g.relay.pushToDevice(g.ide.Seal(frame))
	return nil
}

// Recv opens the next TLP from the device. An IDE failure is fatal: the
// link is torn down, like a real IDE stream entering the error state.
func (g *Guest) Recv() (nic.Frame, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dead != nil {
		return nil, g.dead
	}
	tlp, ok := g.relay.popToTEE()
	if !ok {
		return nil, nic.ErrEmpty
	}
	pt, err := g.ide.Open(tlp)
	if err != nil {
		g.dead = err
		return nil, err
	}
	g.meter.Crypto(len(pt))
	return &nic.BufFrame{B: pt}, nil
}

// Dead returns the fatal IDE error, if any.
func (g *Guest) Dead() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dead
}

// Loop is the device's data-path firmware as a nic.Driver runs it: Step
// 64 times back to back, then wait for the wire's delivery signal (when
// the port has one, as a simnet.Port does) or nic.WaitBound, which is
// also how long a TLP from the TEE can wait to be noticed. The loop ends
// on the link's first IDE failure, or on ErrDetached if it started before
// Attach.
func (d *Device) Loop() nic.Loop {
	var wire <-chan struct{}
	if p, ok := d.wire.(interface{ Wake() <-chan struct{} }); ok {
		wire = p.Wake()
	}
	return nic.Loop{
		Step: func() (bool, time.Time, error) {
			worked, err := d.Step()
			return worked, time.Time{}, err
		},
		Spin: 64, Yield: 64, Bound: nic.WaitBound,
		Wake: func() <-chan struct{} { return wire },
	}
}

// Step runs one iteration of the device's data-path firmware: move TLPs
// from the TEE to the wire and frames from the wire to the TEE. Loop
// calls it under a nic.Driver. Returns whether any work was done.
func (d *Device) Step() (worked bool, err error) {
	d.mu.Lock()
	ide := d.ide
	d.mu.Unlock()
	if ide == nil {
		return false, ErrDetached
	}
	// TEE -> wire. The relay hands us TLPs; we decrypt and transmit.
	if tlp, ok := d.relayRef().popToDevice(); ok {
		frame, err := ide.Open(tlp)
		if err != nil {
			return true, err // IDE error state
		}
		if err := d.wire.Send(frame); err == nil {
			worked = true
		}
	}
	// Wire -> TEE.
	if frame, ok := d.wire.Recv(); ok {
		d.relayRef().pushToTEE(ide.Seal(frame))
		worked = true
	}
	return worked, nil
}

// Connect associates a relay with a device (the PCIe topology).
func (d *Device) Connect(r *Relay) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.relay = r
}

func (d *Device) relayRef() *Relay {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.relay
}
