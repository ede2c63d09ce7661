package ctls

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"confio/internal/platform"
)

// duplex is an in-memory reliable byte stream pair.
type duplex struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    bytes.Buffer
	closed bool
	// tamper, if set, mutates bytes as they are written (the on-path
	// attacker).
	tamper func([]byte) []byte
}

func newDuplexPair() (*end, *end) {
	ab := &duplex{}
	ab.cond = sync.NewCond(&ab.mu)
	ba := &duplex{}
	ba.cond = sync.NewCond(&ba.mu)
	return &end{r: ba, w: ab}, &end{r: ab, w: ba}
}

type end struct {
	r, w *duplex
}

func (e *end) Read(p []byte) (int, error) {
	d := e.r
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.buf.Len() == 0 && !d.closed {
		d.cond.Wait()
	}
	if d.buf.Len() == 0 {
		return 0, io.EOF
	}
	return d.buf.Read(p)
}

func (e *end) Write(p []byte) (int, error) {
	d := e.w
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, io.ErrClosedPipe
	}
	if d.tamper != nil {
		p = d.tamper(append([]byte{}, p...))
	}
	d.buf.Write(p)
	d.cond.Broadcast()
	return len(p), nil
}

func (e *end) Close() error {
	for _, d := range []*duplex{e.r, e.w} {
		d.mu.Lock()
		d.closed = true
		d.cond.Broadcast()
		d.mu.Unlock()
	}
	return nil
}

var psk = []byte("attestation-derived-shared-key!!")

func connect(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := newDuplexPair()
	var cli *Conn
	var cerr error
	done := make(chan struct{})
	go func() {
		cli, cerr = Client(a, psk, nil)
		close(done)
	}()
	srv, serr := Server(b, psk, nil)
	<-done
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: client %v server %v", cerr, serr)
	}
	return cli, srv
}

func TestHandshakeAndEcho(t *testing.T) {
	cli, srv := connect(t)
	msg := []byte("top secret tenant data")
	if _, err := cli.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	// Reverse direction.
	if _, err := srv.Write([]byte("ack")); err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, 3)
	if _, err := io.ReadFull(cli, got2); err != nil {
		t.Fatal(err)
	}
	if string(got2) != "ack" {
		t.Fatalf("got %q", got2)
	}
}

func TestLargeTransferFragmentsRecords(t *testing.T) {
	cli, srv := connect(t)
	data := make([]byte, 100<<10)
	for i := range data {
		data[i] = byte(i * 3)
	}
	go cli.Write(data)
	got := make([]byte, len(data))
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large transfer corrupted")
	}
}

func TestWrongPSKFailsHandshake(t *testing.T) {
	a, b := newDuplexPair()
	done := make(chan error, 1)
	go func() {
		_, err := Client(a, []byte("right key"), nil)
		done <- err
	}()
	if _, err := Server(b, []byte("wrong key"), nil); !errors.Is(err, ErrHandshake) && !errors.Is(err, ErrAuth) {
		t.Fatalf("server accepted wrong PSK: %v", err)
	}
	<-done
}

func TestEmptyPSKRejected(t *testing.T) {
	a, _ := newDuplexPair()
	if _, err := Client(a, nil, nil); !errors.Is(err, ErrHandshake) {
		t.Fatalf("empty PSK: %v", err)
	}
}

func TestTamperedRecordFatal(t *testing.T) {
	cli, srv := connect(t)
	// Flip a ciphertext bit on the wire from now on.
	cliEnd := cli.rw.(*end)
	cliEnd.w.mu.Lock()
	cliEnd.w.tamper = func(p []byte) []byte {
		p[len(p)-1] ^= 1
		return p
	}
	cliEnd.w.mu.Unlock()
	if _, err := cli.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Read(make([]byte, 16)); !errors.Is(err, ErrAuth) {
		t.Fatalf("tampered record: %v", err)
	}
	// Fatal: subsequent reads fail too.
	if _, err := srv.Read(make([]byte, 16)); !errors.Is(err, ErrAuth) {
		t.Fatalf("channel recovered after tamper: %v", err)
	}
}

func TestReplayedRecordFatal(t *testing.T) {
	cli, srv := connect(t)
	cliEnd := cli.rw.(*end)

	// Capture one record, then replay it.
	var captured []byte
	cliEnd.w.mu.Lock()
	cliEnd.w.tamper = func(p []byte) []byte {
		captured = append([]byte{}, p...)
		return p
	}
	cliEnd.w.mu.Unlock()
	if _, err := cli.Write([]byte("pay me once")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	n, err := srv.Read(got)
	if err != nil || string(got[:n]) != "pay me once" {
		t.Fatalf("first read: %q %v", got[:n], err)
	}
	// Attacker injects the captured record again.
	cliEnd.w.mu.Lock()
	cliEnd.w.tamper = nil
	cliEnd.w.buf.Write(captured)
	cliEnd.w.cond.Broadcast()
	cliEnd.w.mu.Unlock()
	if _, err := srv.Read(got); !errors.Is(err, ErrAuth) {
		t.Fatalf("replay accepted: %v", err)
	}
}

func TestReorderedRecordsFatal(t *testing.T) {
	cli, srv := connect(t)
	cliEnd := cli.rw.(*end)
	// Hold the first record, deliver the second first.
	var held []byte
	count := 0
	cliEnd.w.mu.Lock()
	cliEnd.w.tamper = func(p []byte) []byte {
		count++
		if count == 1 {
			held = append([]byte{}, p...)
			return nil
		}
		return append(p, held...)
	}
	cliEnd.w.mu.Unlock()
	if _, err := cli.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Read(make([]byte, 16)); !errors.Is(err, ErrAuth) {
		t.Fatalf("reorder accepted: %v", err)
	}
}

func TestCloseNotify(t *testing.T) {
	cli, srv := connect(t)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Read(make([]byte, 4)); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
	if _, err := cli.Write([]byte("after close")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	cli, srv := connect(t)
	// The attacker closes the transport without a close record.
	cli.rw.(*end).Close()
	if _, err := srv.Read(make([]byte, 4)); err == nil || err == io.EOF {
		// io.ReadFull inside readRecord surfaces EOF/UnexpectedEOF from
		// the transport — but never a *clean* ctls EOF.
		if err == io.EOF {
			t.Fatal("silent truncation reported as clean close")
		}
	}
}

func TestKeyUpdateTransparent(t *testing.T) {
	cli, srv := connect(t)
	// Force a key update by sending an explicit KeyUpdate record.
	if err := cli.writeRecord(recKeyUpdate, nil); err != nil {
		t.Fatal(err)
	}
	if err := cli.out.update(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write([]byte("post-rekey")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	n, err := srv.Read(got)
	if err != nil || string(got[:n]) != "post-rekey" {
		t.Fatalf("post-rekey read: %q %v", got[:n], err)
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	a, b := newDuplexPair()
	done := make(chan *Conn, 1)
	go func() {
		c, _ := Client(a, psk, nil)
		done <- c
	}()
	srv, err := Server(b, psk, nil)
	if err != nil {
		t.Fatal(err)
	}
	cli := <-done

	secret := []byte("THE-SECRET-PAYLOAD-MARKER")
	var wire bytes.Buffer
	cliEnd := cli.rw.(*end)
	cliEnd.w.mu.Lock()
	cliEnd.w.tamper = func(p []byte) []byte {
		wire.Write(p)
		return p
	}
	cliEnd.w.mu.Unlock()
	if _, err := cli.Write(secret); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(secret))
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(wire.Bytes(), secret) {
		t.Fatal("plaintext visible on the wire")
	}
}

func TestMeterCountsCrypto(t *testing.T) {
	var m platform.Meter
	a, b := newDuplexPair()
	go func() {
		c, err := Client(a, psk, &m)
		if err != nil {
			return
		}
		c.Write(make([]byte, 1000))
	}()
	srv, err := Server(b, psk, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.ReadFull(srv, make([]byte, 1000))
	if m.Snapshot().CryptoBytes < 1000 {
		t.Fatalf("CryptoBytes = %d", m.Snapshot().CryptoBytes)
	}
}

// TestNonceKnownAnswer pins the per-record nonce to TLS 1.3's
// construction (RFC 8446 §5.3): the 64-bit sequence number, left-padded
// to the IV's length, XORed into the static IV — not written over it.
func TestNonceKnownAnswer(t *testing.T) {
	d := &direction{
		iv:  [12]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b},
		seq: 0x0102030405060708,
	}
	want := []byte{0x00, 0x01, 0x02, 0x03, 0x05, 0x07, 0x05, 0x03, 0x0d, 0x0f, 0x0d, 0x03}
	if got := d.nonce(); !bytes.Equal(got, want) {
		t.Fatalf("nonce = % x, want % x", got, want)
	}
	d.seq = 0
	if got := d.nonce(); !bytes.Equal(got, d.iv[:]) {
		t.Fatalf("nonce of record 0 = % x, want the IV % x", got, d.iv)
	}
}

// TestRecordBoundariesAndShortReads: records are sealed and opened in
// per-connection buffers and Read hands out the opened record piecemeal,
// so the sizes at the edges (1 byte, one short of a full record, a full
// record, one over) must survive Reads smaller than the record while the
// next record already waits in the transport.
func TestRecordBoundariesAndShortReads(t *testing.T) {
	cli, srv := connect(t)
	for _, size := range []int{1, MaxPlaintext - 1, MaxPlaintext, MaxPlaintext + 1} {
		first := bytes.Repeat([]byte{0xA5}, size)
		for i := range first {
			first[i] ^= byte(i)
		}
		second := []byte("the record behind it")
		if _, err := cli.Write(first); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write(second); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 0, size)
		chunk := make([]byte, 1000)
		for len(got) < size {
			want := size - len(got)
			if want > len(chunk) {
				want = len(chunk)
			}
			n, err := srv.Read(chunk[:want])
			if err != nil {
				t.Fatalf("size %d: read after %d bytes: %v", size, len(got), err)
			}
			got = append(got, chunk[:n]...)
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("size %d: record corrupted by piecemeal reads", size)
		}
		tail := make([]byte, len(second))
		if _, err := io.ReadFull(srv, tail); err != nil || !bytes.Equal(tail, second) {
			t.Fatalf("size %d: following record = %q, %v", size, tail, err)
		}
	}
}

// TestRecordAllocBudget: sealing into the connection's send buffer and
// opening in place leave a full record's round trip — Write of 16 KiB,
// Read of 16 KiB — at most one allocation (it was nine: sealed copy,
// header+body copy, opened copy, readBuf append, nonces and headers).
func TestRecordAllocBudget(t *testing.T) {
	cli, srv := connect(t)
	msg := make([]byte, MaxPlaintext)
	got := make([]byte, MaxPlaintext)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := cli.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(srv, got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("%.1f allocs per 16 KiB record round trip, want <= 1", allocs)
	}
}
