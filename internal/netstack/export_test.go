package netstack

// NewWithClock is New on the clock now, which the stack and its TCP
// endpoint read instead of time.Now.
var NewWithClock = newStack

// HandleFrame is the stack's receive path for one frame, as its loop
// runs it on every frame it dequeues.
var HandleFrame = (*Stack).handleFrame

// ARPPendingTTL is how long a frame waits for its neighbour's answer.
const ARPPendingTTL = arpPendingTTL
