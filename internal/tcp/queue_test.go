package tcp

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestQueueMatchesSliceModel drives a queue and a plain []byte with the
// operations the connection makes of its socket buffers — Write's and the
// receive path's bounded append, the acknowledgement's discard from the
// head, Read's drain, and the peeks at an offset that segmentation, the
// retransmission (offset 0) and the zero-window probe (one byte at
// sndNxt) take — in random sizes, and demands the same bytes from both.
// The bound is small so the ring wraps every few operations and the
// slices are taken across its seam.
func TestQueueMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		max := queueMin << uint(rng.Intn(3)) // 4, 8 or 16 KiB: one to three growths
		var q queue
		var model []byte
		next := byte(0)
		wrapped := 0
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // append, cut short at the bound
				p := make([]byte, rng.Intn(3000))
				for i := range p {
					p[i] = next
					next++
				}
				want := len(p)
				if room := max - len(model); want > room {
					want = room
				}
				if got := q.write(p, max); got != want {
					t.Fatalf("seed %d step %d: write took %d of %d with %d queued, want %d", seed, step, got, len(p), len(model), want)
				}
				model = append(model, p[:want]...)
			case op < 6: // acknowledgement
				n := rng.Intn(len(model) + 1)
				q.discard(n)
				model = model[n:]
			case op < 7: // application read
				p := make([]byte, rng.Intn(4000))
				want := len(p)
				if want > len(model) {
					want = len(model)
				}
				n := q.read(p)
				if n != want || !bytes.Equal(p[:n], model[:n]) {
					t.Fatalf("seed %d step %d: read %d bytes, want %d, or they differ from the model", seed, step, n, want)
				}
				model = model[n:]
			default: // segment, retransmission or probe
				if len(model) == 0 {
					continue
				}
				off := rng.Intn(len(model))
				n := 1 + rng.Intn(len(model)-off)
				switch rng.Intn(4) {
				case 0:
					off = 0 // retransmit the head
				case 1:
					n = 1 // zero-window probe
				}
				if n > 1460 {
					n = 1460
				}
				dst := make([]byte, n)
				q.peek(dst, off)
				if !bytes.Equal(dst, model[off:off+n]) {
					t.Fatalf("seed %d step %d: peek(%d bytes at %d) differs from the model (head %d, %d queued, ring %d)",
						seed, step, n, off, q.head, q.n, len(q.buf))
				}
				if len(q.buf) > 0 && (q.head+off)&(len(q.buf)-1)+n > len(q.buf) {
					wrapped++
				}
			}
			if q.len() != len(model) {
				t.Fatalf("seed %d step %d: len %d, model %d", seed, step, q.len(), len(model))
			}
			if len(q.buf) > max {
				t.Fatalf("seed %d step %d: ring grew to %d past its bound %d", seed, step, len(q.buf), max)
			}
		}
		if wrapped == 0 {
			t.Fatalf("seed %d: no peek crossed the seam; the test is not testing the ring", seed)
		}
	}
}

// TestQueueAllocatesLazily: an idle connection's socket buffers cost
// nothing (connection set-up is a gated metric), a small exchange stays
// in the first small ring, and only a bulk writer grows it to the bound.
func TestQueueAllocatesLazily(t *testing.T) {
	var q queue
	if q.buf != nil {
		t.Fatal("zero queue owns memory")
	}
	q.discard(0)
	if n := q.read(make([]byte, 8)); n != 0 {
		t.Fatalf("read from an empty queue returned %d", n)
	}
	q.write(make([]byte, 256), sndBufMax)
	if len(q.buf) != queueMin {
		t.Fatalf("256 bytes allocated a %d-byte ring, want %d", len(q.buf), queueMin)
	}
	q.write(make([]byte, sndBufMax), sndBufMax)
	if q.len() != sndBufMax || len(q.buf) != sndBufMax {
		t.Fatalf("filled queue: %d queued in a %d-byte ring, want %d in %d", q.len(), len(q.buf), sndBufMax, sndBufMax)
	}
}
