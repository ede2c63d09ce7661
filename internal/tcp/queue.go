package tcp

// queue is a socket buffer: a FIFO of bytes on a ring. The ring is
// allocated by the first write and doubles until it holds the caller's
// bound, so in steady state writes, acknowledgements and reads move the
// payload bytes and nothing else.
type queue struct {
	buf  []byte // len is zero or a power of two
	head int    // index of the oldest byte
	n    int    // bytes queued
}

// queueMin is the first allocation: a few small messages.
const queueMin = 4 << 10

func (q *queue) len() int { return q.n }

// write appends p, cut short where the queue would pass max bytes, and
// returns how much it took.
func (q *queue) write(p []byte, max int) int {
	if room := max - q.n; len(p) > room {
		p = p[:room]
	}
	if len(p) == 0 {
		return 0
	}
	if need := q.n + len(p); need > len(q.buf) {
		size := len(q.buf)
		if size == 0 {
			size = queueMin
		}
		for size < need {
			size *= 2
		}
		buf := make([]byte, size)
		q.peek(buf[:q.n], 0)
		q.buf, q.head = buf, 0
	}
	tail := (q.head + q.n) & (len(q.buf) - 1)
	k := copy(q.buf[tail:], p)
	copy(q.buf, p[k:])
	q.n += len(p)
	return len(p)
}

// peek fills dst with the queued bytes [off, off+len(dst)), which the
// caller knows to be there; they may lie across the ring's seam.
func (q *queue) peek(dst []byte, off int) {
	if len(dst) == 0 {
		return
	}
	k := copy(dst, q.buf[(q.head+off)&(len(q.buf)-1):])
	copy(dst[k:], q.buf)
}

// discard drops the n oldest bytes.
func (q *queue) discard(n int) {
	q.n -= n
	if q.n == 0 {
		q.head = 0 // an idle queue restarts on its warm first lines
		return
	}
	q.head = (q.head + n) & (len(q.buf) - 1)
}

// read moves up to len(p) of the oldest bytes into p.
func (q *queue) read(p []byte) int {
	if len(p) > q.n {
		p = p[:q.n]
	}
	q.peek(p, 0)
	q.discard(len(p))
	return len(p)
}
