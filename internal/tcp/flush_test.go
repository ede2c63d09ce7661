package tcp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentFlushesKeepEmissionOrder: segments are emitted under the
// endpoint lock by whichever goroutine holds it (a writer, the stack's
// receive loop, the timer) and transmitted after it is released. Several
// goroutines flushing at once must not race each other to the transport —
// a batch overtaking an older one looks like loss to the peer (three
// duplicate ACKs, a spurious fast retransmit, a halved window) — so the
// output callback is entered by one goroutine at a time and sees every
// segment in emission order, in pooled buffers whose headroom it may
// scribble on.
func TestConcurrentFlushesKeepEmissionOrder(t *testing.T) {
	const workers, each = 4, 2000
	var inOutput atomic.Int32
	var got []uint32
	e := NewEndpoint(ipA, 1500, testHeadroom, func(b Batch) {
		if inOutput.Add(1) != 1 {
			t.Error("output callback entered concurrently")
		}
		for i, p := range b.Pkts {
			if b.Dst[i] != ipB {
				t.Errorf("segment for %v, want %v", b.Dst[i], ipB)
			}
			h, _, err := Parse(ipA, ipB, p[testHeadroom:])
			if err != nil {
				t.Errorf("segment %d of a batch does not parse: %v", i, err)
			}
			got = append(got, h.Seq)
			for j := 0; j < testHeadroom; j++ {
				p[j] = 0xEE // what netstack's header writers do
			}
		}
		runtime.Gosched() // widen the window another flusher would race in
		inOutput.Add(-1)
	}, nil, nil)

	var next uint32 // guarded by e.mu: the order of emission
	var payload queue
	payload.write(make([]byte, 512), sndBufMax)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e.mu.Lock()
				for k := 0; k < 1+i%3; k++ { // flushes of one to three segments
					e.emit(ipB, Header{SrcPort: 1, DstPort: 2, Seq: next, Flags: FlagACK}, &payload, 0, int(next)%512)
					next++
				}
				e.mu.Unlock()
				e.flush()
			}
		}()
	}
	wg.Wait()

	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.pending.Pkts) != 0 || e.flushing {
		t.Fatalf("%d segments left pending, flushing=%v", len(e.pending.Pkts), e.flushing)
	}
	if uint32(len(got)) != next {
		t.Fatalf("output saw %d segments, %d were emitted", len(got), next)
	}
	for i, seq := range got {
		if seq != uint32(i) {
			t.Fatalf("segment %d reached the output in position %d", seq, i)
		}
	}
	if len(e.free) == 0 || len(e.free) > freeMax {
		t.Fatalf("pool holds %d buffers after the run, want 1..%d", len(e.free), freeMax)
	}
}
