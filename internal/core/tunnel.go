package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"

	"confio/internal/nic"
	"confio/internal/platform"
)

// tunnelNIC implements the LightBox-style design: every Ethernet frame is
// AEAD-sealed and padded to a constant outer size before it reaches the
// (already safe) transport, so the host and the network observe nothing
// but fixed-size opaque blobs between two endpoints — lower-than-network
// observability, paid for with per-frame crypto and padding bandwidth.
//
// Outer format, inside a minimal Ethernet shell so the simulated switch
// can still forward it:
//
//	dst[6] src[6] ethertype[2]=0x88B5 | nonce[12] | ct[padTo+16]
type tunnelNIC struct {
	inner nic.BatchGuest
	aead  cipher.AEAD
	meter *platform.Meter
	padTo int
}

const tunnelEtherType = 0x88B5 // IEEE local experimental

var errTunnel = errors.New("core: tunnel decapsulation failed")

// newTunnelNIC wraps inner with tunnel encapsulation under key.
func newTunnelNIC(inner nic.Guest, key []byte, meter *platform.Meter) (*tunnelNIC, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	// Pad inner frames to the largest frame the inner MTU can produce,
	// so every outer frame has identical size.
	padTo := inner.MTU() + 14 + 2 // inner frame + length prefix
	return &tunnelNIC{inner: nic.UpgradeGuest(inner), aead: aead, meter: meter, padTo: padTo}, nil
}

func (t *tunnelNIC) MAC() [6]byte { return t.inner.MAC() }

// MTU leaves room for the encapsulation overhead relative to the inner
// transport's capacity; the inner stack keeps its MTU (the transport's
// frame capacity absorbs the overhead).
func (t *tunnelNIC) MTU() int { return t.inner.MTU() }

// seal encapsulates one inner frame into a constant-size outer frame. The
// plaintext — length prefix, frame, zero padding — is laid out in the
// outer buffer where its ciphertext goes and sealed in place.
func (t *tunnelNIC) seal(frame []byte) ([]byte, error) {
	if len(frame) < 14 {
		return nil, fmt.Errorf("core: tunnel runt frame %d", len(frame))
	}
	outer := make([]byte, 14+12+t.padTo+t.aead.Overhead())
	copy(outer[0:6], frame[0:6])   // outer dst = inner dst (endpoint identity)
	copy(outer[6:12], frame[6:12]) // outer src
	outer[12], outer[13] = byte(tunnelEtherType>>8), byte(tunnelEtherType&0xFF)
	nonce, pt := outer[14:14+12], outer[14+12:14+12+t.padTo]
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	pt[0], pt[1] = byte(len(frame)>>8), byte(len(frame))
	copy(pt[2:], frame)
	t.aead.Seal(pt[:0], nonce, pt, outer[0:14])
	t.meter.Crypto(t.padTo)
	return outer, nil
}

// open decapsulates one outer frame, releasing it. A nil inner frame with
// a nil error means an undecryptable (attacker-injected or corrupted)
// frame that is silently dropped: DoS is out of scope and integrity holds
// because nothing decapsulates.
func (t *tunnelNIC) open(fr nic.Frame) (nic.Frame, error) {
	outer := fr.Bytes()
	if len(outer) < 14+12+t.aead.Overhead() {
		fr.Release()
		return nil, errTunnel
	}
	nonce := outer[14 : 14+12]
	pt, err := t.aead.Open(nil, nonce, outer[14+12:], outer[0:14])
	fr.Release()
	if err != nil {
		return nil, nil
	}
	t.meter.Crypto(t.padTo)
	if len(pt) < 2 {
		return nil, errTunnel
	}
	n := int(pt[0])<<8 | int(pt[1])
	if n < 14 || n > len(pt)-2 {
		return nil, errTunnel
	}
	return &nic.BufFrame{B: pt[2 : 2+n]}, nil
}

// Send implements nic.Guest: SendBatch of one.
func (t *tunnelNIC) Send(frame []byte) error {
	_, err := t.SendBatch([][]byte{frame})
	return err
}

// Recv implements nic.Guest: RecvBatch of one.
func (t *tunnelNIC) Recv() (nic.Frame, error) {
	var one [1]nic.Frame
	n, err := t.RecvBatch(one[:])
	if n == 0 && err == nil {
		err = nic.ErrEmpty // dropped undecryptable frame
	}
	return one[0], err
}

// SendBatch implements nic.BatchGuest: frames are sealed individually
// (per-frame crypto is this design's stated cost) but flushed to the
// transport as one batch.
func (t *tunnelNIC) SendBatch(frames [][]byte) (int, error) {
	outers := make([][]byte, len(frames))
	for i, f := range frames {
		o, err := t.seal(f)
		if err != nil {
			return 0, err
		}
		outers[i] = o
	}
	return t.inner.SendBatch(outers)
}

// RecvBatch implements nic.BatchGuest, decapsulating a burst dequeued
// with one batched receive into out itself. Undecryptable frames are
// dropped from the burst, so the returned count can be short of what the
// wire carried; the slots they leave are nil.
func (t *tunnelNIC) RecvBatch(out []nic.Frame) (int, error) {
	n, err := t.inner.RecvBatch(out)
	m := 0
	for i := 0; i < n; i++ {
		inner, derr := t.open(out[i])
		out[i] = nil
		if derr != nil || inner == nil {
			continue // malformed or undecryptable: drop
		}
		out[m] = inner
		m++
	}
	return m, err
}
