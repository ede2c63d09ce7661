// Package ctls implements the mandatory secure-channel layer of the
// paper's L5 boundary: an authenticated-encryption record protocol in
// the style of TLS 1.3 (PSK handshake, HKDF key schedule, AES-GCM
// records, strictly monotonic nonces, key updates).
//
// Its role in the design (§3.2, "Hardening L5") is to guarantee the
// integrity, confidentiality and *ordering* of application data even
// when everything below it — the TCP/IP stack, the NIC transport, the
// host — is adversarial: "a mandatory TLS layer guarantees data
// integrity and confidentiality, notably against attempts to break TCP
// guarantees (e.g., replay attacks, out of order packets)".
//
// The handshake is pre-shared-key only: in a confidential-computing
// deployment the PSK stands for the secret established by remote
// attestation, which is out of scope for this reproduction (certificates
// and signatures would only grow the TCB the experiment measures).
package ctls

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"confio/internal/platform"
)

// Record types.
const (
	recHello     byte = 1
	recFinished  byte = 2
	recData      byte = 3
	recKeyUpdate byte = 4
	recClose     byte = 5
)

// MaxPlaintext bounds one record's payload (TLS's 2^14).
const MaxPlaintext = 16 << 10

// rekeyEvery forces a key update after this many records on a direction.
const rekeyEvery = 1 << 20

// Protocol errors. Any record-layer failure is fatal to the connection:
// there is no recovery path an attacker could steer.
var (
	// ErrAuth covers every record-layer integrity failure, including
	// replayed and reordered records (the implicit sequence number makes
	// them indistinguishable from tampering, by design).
	ErrAuth      = errors.New("ctls: record authentication failed")
	ErrHandshake = errors.New("ctls: handshake failed")
	ErrClosed    = errors.New("ctls: connection closed")
	ErrTooLarge  = errors.New("ctls: record too large")
	// ErrTruncated reports the transport ending without an authenticated
	// close record — an attacker-induced truncation.
	ErrTruncated = errors.New("ctls: connection truncated without close record")
)

// hkdfExtract and hkdfExpand implement RFC 5869 over SHA-256.
func hkdfExtract(salt, ikm []byte) []byte {
	m := hmac.New(sha256.New, salt)
	m.Write(ikm)
	return m.Sum(nil)
}

func hkdfExpand(prk []byte, info string, n int) []byte {
	var out []byte
	var prev []byte
	for i := byte(1); len(out) < n; i++ {
		m := hmac.New(sha256.New, prk)
		m.Write(prev)
		m.Write([]byte(info))
		m.Write([]byte{i})
		prev = m.Sum(nil)
		out = append(out, prev...)
	}
	return out[:n]
}

// direction is one half-duplex record stream.
type direction struct {
	aead  cipher.AEAD
	iv    [12]byte
	seq   uint64
	count uint64
	base  []byte // traffic secret, for key updates
	// The nonce and the header (which is also the additional data) of the
	// record in flight, kept here so that sealing and opening a record
	// allocates nothing.
	nbuf [12]byte
	hdr  [3]byte
}

func newDirection(secret []byte) (*direction, error) {
	key := hkdfExpand(secret, "key", 16)
	iv := hkdfExpand(secret, "iv", 12)
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	d := &direction{aead: aead, base: secret}
	copy(d.iv[:], iv)
	return d, nil
}

// nonce XORs the sequence number into the low eight bytes of the static
// IV (TLS 1.3 style); a sequence number is never reused under one key,
// and key updates rotate the key well before 2^64. The result is valid
// until the next call.
func (d *direction) nonce() []byte {
	d.nbuf = d.iv
	binary.BigEndian.PutUint64(d.nbuf[4:], binary.BigEndian.Uint64(d.iv[4:])^d.seq)
	return d.nbuf[:]
}

// update derives the next-generation traffic secret.
func (d *direction) update() error {
	next := hkdfExpand(d.base, "traffic upd", 32)
	nd, err := newDirection(next)
	if err != nil {
		return err
	}
	*d = *nd
	return nil
}

// Conn is an established secure channel over any reliable byte stream.
// The stream's Write must copy: the transport may not keep a reference to
// the bytes it was handed once it returns, because every record is sealed
// in the same per-connection buffer.
type Conn struct {
	rw    io.ReadWriter
	meter *platform.Meter

	out *direction
	in  *direction

	sendBuf []byte // the record being sent: header, then the sealed body
	recBuf  []byte // the record being read, opened in place
	readBuf []byte // decrypted-but-unread plaintext; aliases recBuf
	dead    error
	client  bool
}

// Client runs the initiator handshake over rw with the given PSK.
func Client(rw io.ReadWriter, psk []byte, meter *platform.Meter) (*Conn, error) {
	return handshake(rw, psk, meter, true)
}

// Server runs the responder handshake.
func Server(rw io.ReadWriter, psk []byte, meter *platform.Meter) (*Conn, error) {
	return handshake(rw, psk, meter, false)
}

func handshake(rw io.ReadWriter, psk []byte, meter *platform.Meter, client bool) (*Conn, error) {
	if len(psk) == 0 {
		return nil, fmt.Errorf("%w: empty PSK", ErrHandshake)
	}
	c := &Conn{rw: rw, meter: meter, client: client}

	var ownRand, peerRand [32]byte
	if _, err := rand.Read(ownRand[:]); err != nil {
		return nil, err
	}

	// Hello exchange (plaintext randoms; confidentiality starts after
	// key derivation, authenticity is retroactively established by the
	// Finished MACs over the transcript).
	if client {
		if err := c.writeRaw(recHello, ownRand[:]); err != nil {
			return nil, err
		}
		typ, body, err := c.readRaw()
		if err != nil || typ != recHello || len(body) != 32 {
			return nil, fmt.Errorf("%w: bad server hello", ErrHandshake)
		}
		copy(peerRand[:], body)
	} else {
		typ, body, err := c.readRaw()
		if err != nil || typ != recHello || len(body) != 32 {
			return nil, fmt.Errorf("%w: bad client hello", ErrHandshake)
		}
		copy(peerRand[:], body)
		if err := c.writeRaw(recHello, ownRand[:]); err != nil {
			return nil, err
		}
	}

	var clientRand, serverRand [32]byte
	if client {
		clientRand, serverRand = ownRand, peerRand
	} else {
		clientRand, serverRand = peerRand, ownRand
	}

	transcript := sha256.Sum256(append(clientRand[:], serverRand[:]...))
	master := hkdfExtract(transcript[:], psk)
	c2s, err := newDirection(hkdfExpand(master, "c2s", 32))
	if err != nil {
		return nil, err
	}
	s2c, err := newDirection(hkdfExpand(master, "s2c", 32))
	if err != nil {
		return nil, err
	}
	if client {
		c.out, c.in = c2s, s2c
	} else {
		c.out, c.in = s2c, c2s
	}

	// Finished: both sides prove PSK possession and transcript agreement
	// under the new keys.
	fin := hkdfExpand(master, "finished", 32)
	if err := c.writeRecord(recFinished, fin); err != nil {
		return nil, err
	}
	typ, body, err := c.readRecord()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if typ != recFinished || !hmac.Equal(body, fin) {
		return nil, fmt.Errorf("%w: finished verification", ErrHandshake)
	}
	return c, nil
}

// writeRaw emits an unencrypted handshake record: type | len | body.
func (c *Conn) writeRaw(typ byte, body []byte) error {
	hdr := []byte{typ, byte(len(body) >> 8), byte(len(body))}
	if _, err := c.rw.Write(append(hdr, body...)); err != nil {
		return err
	}
	return nil
}

// readRaw reads one plaintext record.
func (c *Conn) readRaw() (byte, []byte, error) {
	var hdr [3]byte
	if _, err := io.ReadFull(c.rw, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(hdr[1])<<8 | int(hdr[2])
	if n > MaxPlaintext+64 {
		return 0, nil, ErrTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(c.rw, body); err != nil {
		return 0, nil, err
	}
	return hdr[0], body, nil
}

// writeRecord seals and transmits one record.
func (c *Conn) writeRecord(typ byte, plaintext []byte) error {
	if c.dead != nil {
		return c.dead
	}
	if len(plaintext) > MaxPlaintext {
		return ErrTooLarge
	}
	ctLen := len(plaintext) + c.out.aead.Overhead()
	hdr := c.out.hdr[:]
	hdr[0], hdr[1], hdr[2] = typ, byte(ctLen>>8), byte(ctLen)
	if cap(c.sendBuf) < len(hdr)+ctLen {
		c.sendBuf = make([]byte, 0, len(hdr)+ctLen)
	}
	rec := c.out.aead.Seal(append(c.sendBuf[:0], hdr...), c.out.nonce(), plaintext, hdr)
	c.out.seq++
	c.out.count++
	c.meter.Crypto(len(plaintext))
	if _, err := c.rw.Write(rec); err != nil {
		return c.fail(err)
	}
	if c.out.count >= rekeyEvery && typ == recData {
		if err := c.writeRecord(recKeyUpdate, nil); err != nil {
			return err
		}
		if err := c.out.update(); err != nil {
			return c.fail(err)
		}
	}
	return nil
}

// readRecord receives one record and opens it in place: the plaintext it
// returns lives in recBuf until the next call, which Read makes only once
// readBuf has drained. Sequence numbers are implicit: a dropped, replayed,
// or reordered record fails to authenticate, which is fatal — the
// attacker cannot desynchronize the channel without killing it.
func (c *Conn) readRecord() (byte, []byte, error) {
	if c.dead != nil {
		return 0, nil, c.dead
	}
	hdr := c.in.hdr[:]
	if _, err := io.ReadFull(c.rw, hdr); err != nil {
		return 0, nil, c.fail(truncation(err))
	}
	typ, n := hdr[0], int(hdr[1])<<8|int(hdr[2])
	if n > MaxPlaintext+c.in.aead.Overhead() {
		return 0, nil, c.fail(ErrTooLarge)
	}
	if cap(c.recBuf) < n {
		c.recBuf = make([]byte, n)
	}
	ct := c.recBuf[:n]
	if _, err := io.ReadFull(c.rw, ct); err != nil {
		return 0, nil, c.fail(truncation(err))
	}
	pt, err := c.in.aead.Open(ct[:0], c.in.nonce(), ct, hdr)
	if err != nil {
		return 0, nil, c.fail(ErrAuth)
	}
	c.in.seq++
	c.in.count++
	c.meter.Crypto(len(pt))

	switch typ {
	case recKeyUpdate:
		if err := c.in.update(); err != nil {
			return 0, nil, c.fail(err)
		}
		return c.readRecord()
	case recClose:
		c.dead = ErrClosed
		return 0, nil, io.EOF
	}
	return typ, pt, nil
}

// truncation maps transport EOFs to ErrTruncated: only an authenticated
// close record may end a ctls stream cleanly.
func truncation(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrTruncated
	}
	return err
}

func (c *Conn) fail(err error) error {
	if c.dead == nil {
		c.dead = err
	}
	return c.dead
}

// Write encrypts and sends p, fragmenting into records.
func (c *Conn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > MaxPlaintext {
			n = MaxPlaintext
		}
		if err := c.writeRecord(recData, p[:n]); err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// Read returns decrypted application data.
func (c *Conn) Read(p []byte) (int, error) {
	for len(c.readBuf) == 0 {
		typ, pt, err := c.readRecord()
		if err != nil {
			return 0, err
		}
		if typ != recData {
			return 0, c.fail(fmt.Errorf("%w: unexpected record type %d", ErrAuth, typ))
		}
		c.readBuf = pt
	}
	n := copy(p, c.readBuf)
	c.readBuf = c.readBuf[n:]
	return n, nil
}

// Close sends an authenticated close record (so truncation is
// detectable), marks the connection dead and closes the transport. A
// connection already dead — the peer closed, or a record failed —
// sends nothing but still closes its transport.
func (c *Conn) Close() error {
	var err error
	if c.dead == nil {
		err = c.writeRecord(recClose, nil)
		c.dead = ErrClosed
	}
	if closer, ok := c.rw.(io.Closer); ok {
		closer.Close()
	}
	return err
}
