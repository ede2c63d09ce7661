package netstack

// NewWithClock is New on the clock now, which the stack and its TCP
// endpoint read instead of time.Now.
var NewWithClock = newStack
