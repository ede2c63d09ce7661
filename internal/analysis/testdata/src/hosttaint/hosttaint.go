// Package hosttaint is the corpus for the host-taint analyzer's flows
// across function boundaries: the fetch and the unsafe use live in
// different functions. The same-function cases are in taintlocal.
package hosttaint

import (
	"shmem"
)

// readLen is a plain fetch helper: its result is host-controlled.
func readLen(r *shmem.Region) uint32 {
	return r.U32(0)
}

// BadCrossFunctionIndex is the acceptance case: the fetch happens inside
// readLen, the indexing here.
func BadCrossFunctionIndex(r *shmem.Region, buf []byte) byte {
	return buf[readLen(r)] // want "host-controlled value \\(via readLen\\) indexes buf"
}

// BadCrossFunctionVar: same flow through a local.
func BadCrossFunctionVar(r *shmem.Region, buf []byte) byte {
	n := readLen(r)
	return buf[n] // want "via readLen"
}

// GoodCallerValidates: a terminating bounds guard after the call cleans it.
func GoodCallerValidates(r *shmem.Region, buf []byte) byte {
	n := readLen(r)
	if int(n) >= len(buf) {
		return 0
	}
	return buf[n]
}

// GoodCallerMasks: masking sanitizes interprocedural taint too.
func GoodCallerMasks(r *shmem.Region, buf []byte) byte {
	n := readLen(r)
	return buf[n&63]
}

// GoodCallerCaps: min() against a trusted bound sanitizes.
func GoodCallerCaps(r *shmem.Region, buf []byte) byte {
	k := min(readLen(r), 63)
	return buf[k]
}

// safeLen validates before returning, so its result is trusted.
func safeLen(r *shmem.Region, max uint32) uint32 {
	n := r.U32(0)
	if n >= max {
		return 0
	}
	return n
}

// GoodCalleeValidates: the callee's own fail-dead guard launders the value.
func GoodCalleeValidates(r *shmem.Region, buf []byte) byte {
	return buf[safeLen(r, uint32(len(buf)))]
}

// BadLocalFlow: fetch and use in ONE function is the same finding, with
// no callee to name.
func BadLocalFlow(r *shmem.Region, buf []byte) byte {
	n := r.U32(0)
	return buf[n] // want "^host-controlled value indexes buf"
}

// useIdx indexes its parameter without validation: summarized as a
// parameter sink, silent here (nothing concrete flows in).
func useIdx(buf []byte, i uint32) byte {
	return buf[i]
}

// BadParamSink: a host-controlled argument meets useIdx's unsanitized
// parameter — reported at the call site, where the taint is concrete.
func BadParamSink(r *shmem.Region, buf []byte) byte {
	return useIdx(buf, r.U32(8)) // want "passed to parameter \"i\" of useIdx, which indexes buf"
}

// hop2 forwards its parameter into useIdx: the sink is two hops away.
func hop2(buf []byte, i uint32) byte {
	return useIdx(buf, i)
}

// BadThreeHop: fetch -> hop2 -> useIdx -> buf[i]; the summary fixpoint
// carries the sink note back through the chain.
func BadThreeHop(r *shmem.Region, buf []byte) byte {
	return hop2(buf, r.U32(4)) // want "parameter \"i\" of hop2, which hands it to useIdx, which indexes buf"
}

// safeIdx guards its parameter before use: no parameter sink, so callers
// may pass host values freely.
func safeIdx(buf []byte, i uint32) byte {
	if int(i) >= len(buf) {
		return 0
	}
	return buf[i]
}

// GoodCalleeGuardsParam: the callee revalidates, the call site is clean.
func GoodCalleeGuardsParam(r *shmem.Region, buf []byte) byte {
	return safeIdx(buf, r.U32(0))
}

// readPair returns a host value through a tuple.
func readPair(r *shmem.Region) (uint32, error) {
	return r.U32(0), nil
}

// BadTupleFlow: taint tracked per result position through n, _ := f().
func BadTupleFlow(r *shmem.Region, buf []byte) byte {
	n, _ := readPair(r)
	return buf[n] // want "via readPair"
}

// hdr mimics a descriptor snapshot assembled by a helper.
type hdr struct {
	n uint32
}

// readHdr taints the snapshot through a field write; returning the struct
// returns the taint.
func readHdr(r *shmem.Region) hdr {
	var h hdr
	h.n = r.U32(0)
	return h
}

// BadStructFieldFlow: the tainted field surfaces at the caller's index.
func BadStructFieldFlow(r *shmem.Region, buf []byte) byte {
	h := readHdr(r)
	return buf[h.n] // want "via readHdr"
}

// dev exercises method calls: receiver is parameter slot zero.
type dev struct {
	r   *shmem.Region
	buf []byte
}

func (d *dev) hdrLen() uint32 {
	return d.r.U32(0)
}

// BadMethodFlow: taint returned by a method reaches an index in another.
func (d *dev) BadMethodFlow() byte {
	return d.buf[d.hdrLen()] // want "via hdrLen"
}

// BadLoopBound: a host-chosen loop limit spins the guest an attacker-chosen
// number of iterations.
func BadLoopBound(r *shmem.Region) int {
	n := r.U32(0)
	sum := 0
	for i := uint32(0); i < n; i++ { // want "bounds a loop"
		sum++
	}
	return sum
}

// GoodLoopBoundValidated: fail-dead guard before the loop cleans the bound.
func GoodLoopBoundValidated(r *shmem.Region) int {
	n := r.U32(0)
	if n > 64 {
		return 0
	}
	sum := 0
	for i := uint32(0); i < n; i++ {
		sum++
	}
	return sum
}

// spin's parameter bounds a loop: summarized, reported at call sites.
func spin(n uint32) int {
	sum := 0
	for i := uint32(0); i < n; i++ {
		sum++
	}
	return sum
}

// BadLoopBoundViaCall: concrete host taint meets spin's loop-bound param.
func BadLoopBoundViaCall(r *shmem.Region) int {
	return spin(r.U32(0)) // want "parameter \"n\" of spin, which bounds a loop"
}

// BadRangeOverHostInt: range-over-int with a host-chosen count.
func BadRangeOverHostInt(r *shmem.Region) int {
	sum := 0
	for range int(r.U32(16)) { // want "bounds a loop"
		sum++
	}
	return sum
}

// BadUnsafeConv: host-controlled values must never become raw addresses.
func BadUnsafeConv(r *shmem.Region) uintptr {
	off := uintptr(r.U64(0)) // want "reaches an unsafe conversion"
	return off
}

// GoodUnsafeMasked: masked before the conversion.
func GoodUnsafeMasked(r *shmem.Region) uintptr {
	off := r.U64(0) & 0xfff
	return uintptr(off)
}

// alloc's parameter sizes an allocation.
func alloc(n int) []byte {
	return make([]byte, n)
}

// BadAllocViaCall: host-controlled size handed to a sizing parameter.
func BadAllocViaCall(r *shmem.Region) []byte {
	return alloc(int(r.U32(0))) // want "parameter \"n\" of alloc, which sizes an allocation"
}

// view's parameter reaches Region.Slice, which panics on wrap.
func view(r *shmem.Region, n int) []byte {
	return r.Slice(0, n)
}

// BadSliceViaCall: host length reaches the panicking view through a call.
func BadSliceViaCall(r *shmem.Region) []byte {
	return view(r, int(r.U32(0))) // want "parameter \"n\" of view, which reaches Region.Slice"
}

// GoodSanitizedAssign: the annotation vouches for the assigned value.
func GoodSanitizedAssign(r *shmem.Region, buf []byte) byte {
	//ciovet:sanitized audited: upstream ring attests this length
	n := readLen(r)
	return buf[n]
}

//ciovet:sanitized audited: clamps internally against the region size
func trustedLen(r *shmem.Region) uint32 {
	return r.U32(12)
}

// GoodSanitizedFunc: an annotated function's results are trusted wholesale.
func GoodSanitizedFunc(r *shmem.Region, buf []byte) byte {
	return buf[trustedLen(r)]
}

// GoodUnknownCallee: dynamic calls have no summary and are assumed clean —
// the documented conservative-clean limitation.
func GoodUnknownCallee(buf []byte, f func() uint32) byte {
	return buf[f()]
}

// checkIdx is a factored-out validator: it bounds-checks its parameter in
// a terminating guard, so summaries record it as checking slot 0.
func checkIdx(i uint32, n int) error {
	if int(i) >= n {
		return errTooBig
	}
	return nil
}

var errTooBig error

// GoodValidatorCallIdiom: the fail-dead error check on a validator call
// credits the checked argument — the tree's dominant checkPeer* shape.
func GoodValidatorCallIdiom(r *shmem.Region, buf []byte) byte {
	n := readLen(r)
	if err := checkIdx(n, len(buf)); err != nil {
		return 0
	}
	for i := uint32(0); i < n; i++ {
		_ = buf[i]
	}
	return buf[n]
}

// BadValidatorErrorIgnored: calling the validator but not acting on its
// error validates nothing.
func BadValidatorErrorIgnored(r *shmem.Region, buf []byte) byte {
	n := readLen(r)
	_ = checkIdx(n, len(buf))
	return buf[n] // want "via readLen"
}
